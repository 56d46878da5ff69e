// Command relaybench is the relay's end-to-end benchmark. It starts the
// engine in-process on loopback, drives it open loop from at most two client
// sockets and two generator threads, checks every delivered datagram byte
// for byte, and prints each metric by name with its unit. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	relaybench --workload echo-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the layer ladder instead — a raw-loopback reference rung, the workload
// untraced and traced, and for echo-small an empty-chain rung — records spans
// around its own calls into each layer, writes them under -out, and reports
// the per-layer metrics. README.md maps every per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// set records a metric; note (sample counts, bases) goes to the
// human-readable report only.
func (r *result) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-40s %16.4f %-6s %s\n", name, v, unit, note)
}

// report prints a metric that the JSON line does not carry: its run-to-run
// spread on a small shared host is wider than any bound a later change could
// be held to, so it is printed for reading, and the traced run reports it as
// a per-layer figure.
func report(name string, v float64, unit, note string) {
	fmt.Printf("  %-40s %16.4f %-6s %s (reported, not bounded)\n", name, v, unit, note)
}

// An end-to-end run builds its set-up at least minSetups times and until the
// set-ups add up to setupSpan seconds, at most maxSetups times; setup_s is
// the median. A set-up of a few tens of milliseconds is thus built dozens of
// times, so that a few milliseconds of preemption on a shared host do not
// move the median.
const (
	minSetups = 9
	maxSetups = 64
	setupSpan = 3.0
)

// setUp is one built set-up of a workload.
type setUp interface {
	close()
	setupSeconds() float64
}

// medianSetup builds a set-up as often as the rule above asks, closing all
// but the last, and returns the last with every set-up's time. build gets
// the repetition's index.
func medianSetup[R setUp](build func(rep int) (R, error)) (last R, setups []float64, err error) {
	total := 0.0
	for i := 0; i < maxSetups && (i < minSetups || total < setupSpan); i++ {
		if i > 0 {
			last.close()
		}
		if last, err = build(i); err != nil {
			return last, nil, err
		}
		setups = append(setups, last.setupSeconds())
		total += last.setupSeconds()
	}
	return last, setups, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "echo-small, fanout-mixed or churn-park")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced layer ladder and per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory trace files are written to")
		defects  = flag.Bool("engine-defects", false,
			"run the workload shapes that expose the engine defects README.md lists: churn-park at 4000 pps on the default readers with a live primed table, fanout-mixed with roaming receivers")
	)
	flag.Parse()
	if *defects {
		churnPark.rate, churnPark.shards, churnPark.parkPrimed = 4000, 0, false
		roaming = true
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "relaybench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, tr, err := runWorkload(*workload, *seed, *seconds, *trace == 1)
	if err == nil && tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err = os.MkdirAll(*out, 0o755); err == nil {
			err = tr.write(path)
		}
		if err == nil {
			fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaybench: %v\n", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaybench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func runWorkload(name string, seed uint64, seconds float64, traced bool) (*result, *tracer, error) {
	fmt.Printf("relaybench: workload %s, seed %d, %.0fs window, trace %v\n", name, seed, seconds, traced)
	switch name {
	case "echo-small":
		if traced {
			return echoLayers(&echoSmall, seed, seconds)
		}
		res, err := echoE2E(&echoSmall, seed, seconds)
		return res, nil, err
	case "churn-park":
		if traced {
			return echoLayers(&churnPark, seed, seconds)
		}
		res, err := echoE2E(&churnPark, seed, seconds)
		return res, nil, err
	case "fanout-mixed":
		if traced {
			return fanoutLayers(seed, seconds)
		}
		res, err := fanoutE2E(seed, seconds)
		return res, nil, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want echo-small, fanout-mixed or churn-park)", name)
}
