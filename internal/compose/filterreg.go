package compose

import (
	"strings"

	"rapidware/internal/filter"
)

// The pre-compose control protocol addressed some kinds by different names
// and parameter keys. The adapter keeps those invocations working against
// the unified registry so existing rapidctl scripts and -filters flags do
// not break:
var (
	// legacyAliases maps historical kind names to their canonical compose
	// kind. Aliases exist only on the filter.Registry surface; the plan
	// language stays canonical.
	legacyAliases = map[string]string{
		"downsample":  "transcode",
		"fec-encoder": "fec-encode",
		"fec-decoder": "fec-decode",
	}
	// legacyArgKeys maps kind (or alias) names to the dedicated parameter
	// key the old protocol used for them.
	legacyArgKeys = map[string]string{
		"ratelimit":   "bps",
		"delay":       "ms",
		"transcode":   "factor",
		"downsample":  "factor",
		"thin":        "factor",
		"compress":    "level",
		"fec-encode":  "nk",
		"fec-encoder": "nk",
	}
	// legacyDefaults restores the old registry's behavior for kinds whose
	// constructors had a default when no parameter was given.
	legacyDefaults = map[string]string{
		"ratelimit": "1048576", // 1 MiB/s, as filter.NewRegistry defaulted
		"delay":     "0s",
	}
)

// NewFilterRegistry adapts a compose registry into a filter.Registry, the
// spec-map form the legacy single-stream control path (core.Proxy, OpInsert
// with a filter.Spec) instantiates filters through. Every buildable compose
// kind is registered once — the same stage definitions the engine runs
// inline, hosted on detachable streams through filter.Stream, so the two
// paths can never drift — plus the historical alias names. The stage argument is taken from the spec's "arg" parameter, with
// the old dedicated keys (bps, ms, factor, level, nk) still honored.
func NewFilterRegistry(reg *Registry, env Env) *filter.Registry {
	if reg == nil {
		reg = Default()
	}
	fr := filter.NewBareRegistry()
	register := func(name string, def Definition) {
		// Built-ins registering into an empty registry cannot collide.
		_ = fr.Register(name, func(s filter.Spec) (filter.Filter, error) {
			arg := specArg(name, s)
			canon, err := def.canonArg(arg)
			if err != nil {
				return nil, err
			}
			e := env
			if s.Name != "" && s.Name != name {
				instance := s.Name
				e.Name = func(string) string { return instance }
			}
			st, err := def.Build(e, canon)
			if err != nil {
				return nil, err
			}
			if f, ok := st.(filter.Filter); ok {
				return f, nil // the stage embeds its own filter.Stream
			}
			return filter.NewStream(st.Name(), st), nil
		})
	}
	for _, kind := range reg.Kinds() {
		def, ok := reg.Lookup(kind)
		if !ok || def.Marker {
			continue // markers are managed by the adaptation plane, not specs
		}
		register(kind, def)
	}
	for alias, target := range legacyAliases {
		if def, ok := reg.Lookup(target); ok && !def.Marker {
			register(alias, def)
		}
	}
	return fr
}

// specArg extracts a stage argument from a filter spec's parameters,
// honoring the legacy key and default for the (possibly aliased) kind name.
func specArg(name string, s filter.Spec) string {
	if arg, ok := s.Params["arg"]; ok {
		return arg
	}
	if key, ok := legacyArgKeys[name]; ok {
		if v, ok := s.Params[key]; ok {
			switch key {
			case "ms":
				return v + "ms"
			case "nk":
				// The old fec-encoder kind took "n,k"; the spec language
				// says "n/k".
				return strings.Replace(v, ",", "/", 1)
			default:
				return v
			}
		}
	}
	return legacyDefaults[name]
}
