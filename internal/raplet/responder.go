package raplet

import (
	"errors"
	"fmt"
	"sync"

	"rapidware/internal/core"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
)

// FECResponder implements the paper's demand-driven FEC scenario: when the
// loss rate on a wireless link rises above a threshold it inserts an FEC
// encoder filter into the proxy's chain, and when the loss subsides it
// removes the filter again, all on the live stream.
type FECResponder struct {
	name      string
	proxy     *core.Proxy
	params    fec.Params
	threshold float64
	position  int

	mu         sync.Mutex
	filterName string
	inserted   bool
	insertions uint64
	removals   uint64
}

// NewFECResponder returns a responder managing an FEC encoder in proxy.
// position is the chain position at which the encoder is inserted (typically
// 1, immediately after the input endpoint); threshold is the loss rate above
// which FEC is enabled.
func NewFECResponder(name string, proxy *core.Proxy, params fec.Params, position int, threshold float64) (*FECResponder, error) {
	if proxy == nil {
		return nil, errors.New("raplet: FEC responder requires a proxy")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		name = "fec-responder"
	}
	return &FECResponder{
		name:       name,
		proxy:      proxy,
		params:     params,
		threshold:  threshold,
		position:   position,
		filterName: fmt.Sprintf("%s-encoder%s", name, params.String()),
	}, nil
}

// Name implements Responder.
func (r *FECResponder) Name() string { return r.name }

// Active reports whether the FEC encoder is currently inserted.
func (r *FECResponder) Active() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inserted
}

// Stats returns how many times the responder inserted and removed the filter.
func (r *FECResponder) Stats() (insertions, removals uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.insertions, r.removals
}

// Handle implements Responder: it reacts to loss-rate events by inserting or
// removing the FEC encoder.
func (r *FECResponder) Handle(e Event) error {
	if e.Type != EventLossRate {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case e.Value >= r.threshold && !r.inserted:
		enc, err := fecproxy.NewEncoderFilter(r.filterName, r.params, 1)
		if err != nil {
			return err
		}
		if err := r.proxy.InsertFilter(enc, r.position); err != nil {
			return fmt.Errorf("raplet: insert FEC filter: %w", err)
		}
		r.inserted = true
		r.insertions++
	case e.Value < r.threshold && r.inserted:
		if _, err := r.proxy.RemoveFilterByName(r.filterName); err != nil {
			return fmt.Errorf("raplet: remove FEC filter: %w", err)
		}
		r.inserted = false
		r.removals++
	}
	return nil
}

var (
	_ Responder = (*FECResponder)(nil)
	_ Responder = ResponderFunc{}
)
