package main

import (
	"fmt"
	"slices"

	"rapidware/internal/engine"
)

// echoE2E is the end-to-end run of an echo workload.
func echoE2E(spec *echoSpec, seed uint64, seconds float64) (*result, error) {
	r, setups, err := medianSetup(func(int) (*echoRun, error) { return setupEcho(spec, seed, spec.chain, false, seconds, nil) })
	if err != nil {
		return nil, err
	}
	defer r.close()
	w := r.measure(seconds, nil)
	open, ct := w.open, w.ctl
	openWhat, ctlWhat := "sessions opened or unparked by window traffic", "window control operations"
	if !spec.churn {
		open, ct = r.probe(nil)
		openWhat, ctlWhat = "fresh sessions opened after the window", "control operations after the window"
	}
	ctl := newDist(ct.all)
	l := r.load
	failed, failLine := l.failures(kindData, kindProbe)
	failed += ct.errs
	attempted := l.sent[kindData].Load() + l.sent[kindProbe].Load() + ct.calls

	res := newResult()
	res.Attempted, res.Failed = attempted, failed
	fmt.Printf("fail_ratio %.6f = failed %d / attempted %d (%d window datagrams + %d probe datagrams + %d control operations)\n",
		ratio(float64(failed), float64(attempted)), failed, attempted, l.sent[kindData].Load(), l.sent[kindProbe].Load(), ct.calls)
	fmt.Printf("failures: %s  control-errors %d\n", failLine, ct.errs)
	for _, m := range l.missingData(8) {
		fmt.Printf("missing: %s\n", m)
	}
	printConservation(l, w)
	report("latency_p50_us", w.lat.steadyUs(0.50, latBatches), "us", fmt.Sprintf("n=%d echoes, from due time", w.lat.n()))
	report("latency_p99_us", w.lat.steadyUs(0.99, latBatches), "us", fmt.Sprintf("n=%d", w.lat.n()))
	report("open_p50_us", open.steadyUs(0.50, probeBatches), "us", fmt.Sprintf("n=%d %s", open.n(), openWhat))
	report("open_p99_us", open.steadyUs(0.99, probeBatches), "us", fmt.Sprintf("n=%d", open.n()))
	report("control_p99_us", ctl.steadyUs(0.99, probeBatches), "us", fmt.Sprintf("n=%d %s", ctl.n(), ctlWhat))
	res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, min %.4f max %.4f", len(setups), slices.Min(setups), slices.Max(setups)))
	res.set("cpu_us_per_pkt", cpuPerPkt(w), "us",
		fmt.Sprintf("median over %d one-second slices; whole window: CPU %.3fs / %d deliveries", len(w.cpuSlices), float64(w.cpuNs)/1e9, w.deliveries))
	res.set("delivered_ratio", 1-ratio(float64(failed), float64(attempted)), "ratio", "1 - fail_ratio")
	res.set("goodput_ratio", ratio(float64(l.recv[kindData].Load()), float64(l.sent[kindData].Load())), "ratio",
		fmt.Sprintf("%d of %d window datagrams echoed", l.recv[kindData].Load(), l.sent[kindData].Load()))
	res.set("heap_b_per_session", w.heapPerSession, "B", fmt.Sprintf("over %d registered sessions (%d live)", w.sessions, w.live))
	return res, nil
}

// printConservation checks the echo books: every datagram sent in the window
// was echoed, dropped in a bucket the engine names, or is unexplained. Every
// one not echoed is a failure; the buckets say where it went.
func printConservation(l *echoLoad, w window) {
	d := func(a, b uint64) uint64 { return a - b }
	sent, delivered := l.sent[kindData].Load(), l.recv[kindData].Load()
	writeDrops, rejected := d(w.st1.WriteDrops, w.st0.WriteDrops), d(w.st1.Rejected, w.st0.Rejected)
	malformed, chainErrs := d(w.st1.Malformed, w.st0.Malformed), d(w.st1.ChainErrors, w.st0.ChainErrors)
	named := w.drops + writeDrops + rejected + malformed + chainErrs
	fmt.Printf("conservation: sent %d = echoed %d + queue-drops %d + write-drops %d + rejected %d (admission %d) + malformed %d + chain-errors %d + unexplained %d\n",
		sent, delivered, w.drops, writeDrops, rejected, d(w.st1.AdmissionDrops, w.st0.AdmissionDrops),
		malformed, chainErrs, int64(sent)-int64(delivered)-int64(named))
}

// rungResult is one rung of the traced layer ladder.
type rungResult struct {
	w                 window
	open              dist
	ctl               controlTimes
	failed, attempted uint64
}

// echoRung sets up one rung, measures it and tears it down.
func echoRung(spec *echoSpec, seed uint64, seconds float64, name, chain string, ref, probe bool, tr *tracer) (rungResult, error) {
	fmt.Printf("rung %s: chain %q\n", name, chain)
	tr.setRung(name)
	var rr rungResult
	r, err := setupEcho(spec, seed, chain, ref, seconds, tr)
	if err != nil {
		return rr, fmt.Errorf("rung %s: %w", name, err)
	}
	defer r.close()
	rr.w = r.measure(seconds, tr)
	rr.open, rr.ctl = rr.w.open, rr.w.ctl
	if probe && r.eng != nil {
		rr.open, rr.ctl = r.probe(tr)
	}
	l := r.load
	rr.failed, _ = l.failures(kindData, kindProbe)
	rr.failed += rr.ctl.errs
	rr.attempted = l.sent[kindData].Load() + l.sent[kindProbe].Load() + rr.ctl.calls
	if !ref {
		printConservation(l, rr.w)
	}
	fmt.Printf("rung %s: latency p50 %.1fus p99 %.1fus (n=%d)  cpu %.2fus/pkt  failed %d of %d\n", name,
		rr.w.lat.us(0.5), rr.w.lat.us(0.99), rr.w.lat.n(), cpuPerPkt(rr.w), rr.failed, rr.attempted)
	return rr, nil
}

// cpuPerPkt is the window's process CPU per application delivery: the median
// one-second slice, or the whole window when it had no full slice.
func cpuPerPkt(w window) float64 {
	if len(w.cpuSlices) > 0 {
		return median(w.cpuSlices)
	}
	return float64(w.cpuNs) / 1e3 / float64(max(w.deliveries, 1))
}

// echoLayers is the traced run of an echo workload: reference, untraced and
// traced rungs (plus the empty-chain rung on a workload whose chain is not
// changed by control traffic), each for half the window.
func echoLayers(spec *echoSpec, seed uint64, seconds float64) (*result, *tracer, error) {
	half := seconds / 2
	tr := newTracer(16)
	ref, err := echoRung(spec, seed, half, "ref", "", true, false, nil)
	if err != nil {
		return nil, nil, err
	}
	plain, err := echoRung(spec, seed, half, "engine", spec.chain, false, false, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := echoRung(spec, seed, half, "engine.traced", spec.chain, false, !spec.churn, tr)
	if err != nil {
		return nil, nil, err
	}
	var ly layers
	if !spec.churn {
		empty, err := echoRung(spec, seed, half, "engine.empty-chain.traced", "", false, false, tr)
		if err != nil {
			return nil, nil, err
		}
		stages := float64(len(splitChain(spec.chain)))
		ly.stageLatency = (traced.w.lat.us(0.5) - empty.w.lat.us(0.5)) / stages
		ly.stageCPU = (cpuPerPkt(traced.w) - cpuPerPkt(empty.w)) / stages
		ly.addRung(empty)
	} else {
		ly.heapPerParked = traced.w.heapPerSession // weighed once every session had parked
	}
	ly.ref, ly.plain, ly.traced = ref, plain, traced
	ly.addRung(ref)
	ly.addRung(plain)
	ly.addRung(traced)
	res := ly.emit()
	return res, tr, nil
}

// engineDelta is st1 - st0 counter by counter, for the counters the ledger
// reads.
func engineDelta(st0, st1 engine.Stats) engine.Stats {
	return engine.Stats{
		Datagrams: st1.Datagrams - st0.Datagrams, Malformed: st1.Malformed - st0.Malformed,
		Rejected: st1.Rejected - st0.Rejected, ChainErrors: st1.ChainErrors - st0.ChainErrors,
		Feedback: st1.Feedback - st0.Feedback, Nacks: st1.Nacks - st0.Nacks, Retransmits: st1.Retransmits - st0.Retransmits,
		BatchedWrites: st1.BatchedWrites - st0.BatchedWrites, WriteFlushes: st1.WriteFlushes - st0.WriteFlushes,
		WriteDrops: st1.WriteDrops - st0.WriteDrops, RecvCalls: st1.RecvCalls - st0.RecvCalls, SendCalls: st1.SendCalls - st0.SendCalls,
		BypassHits: st1.BypassHits - st0.BypassHits, CoalescedSends: st1.CoalescedSends - st0.CoalescedSends,
		Parks: st1.Parks - st0.Parks, Unparks: st1.Unparks - st0.Unparks, Harvested: st1.Harvested - st0.Harvested,
		AdmissionDrops: st1.AdmissionDrops - st0.AdmissionDrops, TotalSessions: st1.TotalSessions - st0.TotalSessions,
	}
}
