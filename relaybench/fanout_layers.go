package main

import (
	"fmt"
	"math/rand/v2"

	"rapidware/internal/fec"
	"rapidware/internal/gf256"
)

// fanoutLayers is the traced run of fanout-mixed: the raw fan-out reference,
// the engine untraced and traced, each for half the window, plus timed
// encodes and GF(256) kernel calls at the codes and payload the run used.
func fanoutLayers(seed uint64, seconds float64) (*result, *tracer, error) {
	half := seconds / 2
	tr := newTracer(16)
	ref, _, err := fanRung(seed, half, "ref", true, false, nil)
	if err != nil {
		return nil, nil, err
	}
	plain, _, err := fanRung(seed, half, "engine", false, false, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, f, err := fanRung(seed, half, "engine.traced", false, true, tr)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range fanClasses {
		if c.mech == "fec" {
			f.codes = append(f.codes, fec.Params{K: c.k, N: c.n})
		}
	}
	f.encodeUs = encodeMicro(f.codes, fanPayload+2)
	f.addmulGbps = addmulMicro(fanPayload + 2)
	ly := layers{ref: ref, plain: plain, traced: traced, fan: f}
	ly.addRung(plain)
	ly.addRung(traced)
	return ly.emit(), tr, nil
}

// fanRung sets up one fan-out rung, measures it and tears it down; probe adds
// the open and control probe.
func fanRung(seed uint64, seconds float64, name string, ref, probe bool, tr *tracer) (rungResult, *fanLedger, error) {
	fmt.Printf("rung %s\n", name)
	tr.setRung(name)
	r, err := setupFanout(seed, 0, ref, seconds, tr)
	if err != nil {
		return rungResult{}, nil, fmt.Errorf("rung %s: %w", name, err)
	}
	w := r.measure(seconds, tr)
	var ct controlTimes
	if probe {
		ct = r.probe(tr)
	}
	r.close()
	b := r.books(ct)
	rr := rungResult{w: w.window, open: b.open, ctl: ct, failed: b.failed, attempted: b.attempted}
	rr.w.lat = b.lat
	fmt.Printf("rung %s: latency p50 %.1fus p99 %.1fus (n=%d)  cpu %.2fus/pkt  %s\n", name,
		b.lat.us(0.5), b.lat.us(0.99), b.lat.n(), cpuPerPkt(rr.w), b.failLine)
	return rr, &fanLedger{w: w, b: b, decodeNs: r.load.decodeNs, decodeGroups: r.load.decodeGroups}, nil
}

// encodeMicro times Coder.EncodeParityInto for each code over shares of size
// bytes and returns the mean µs per group across the codes.
func encodeMicro(codes []fec.Params, size int) float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	var total float64
	for _, p := range codes {
		coder, err := fec.NewCoder(p)
		if err != nil {
			continue
		}
		src := make([][]byte, p.K)
		for i := range src {
			src[i] = make([]byte, size)
			for j := range src[i] {
				src[i][j] = byte(rng.Uint32())
			}
		}
		par := make([][]byte, p.N-p.K)
		for i := range par {
			par[i] = make([]byte, size)
		}
		const reps = 4000
		per := make([]float64, 0, 5)
		for b := 0; b < 5; b++ {
			t0 := nowNs()
			for i := 0; i < reps; i++ {
				_ = coder.EncodeParityInto(src, par) // sizes are fixed and valid
			}
			per = append(per, float64(nowNs()-t0)/1e3/reps)
		}
		total += median(per)
	}
	return ratio(total, float64(len(codes)))
}

// addmulMicro returns gf256.AddMulSlice throughput over size-byte slices in
// GB/s (median of five batches).
func addmulMicro(size int) float64 {
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	const reps = 50000
	per := make([]float64, 0, 5)
	for b := 0; b < 5; b++ {
		t0 := nowNs()
		for i := 0; i < reps; i++ {
			gf256.AddMulSlice(byte(i|1), src, dst)
		}
		per = append(per, float64(size*reps)/float64(nowNs()-t0))
	}
	return median(per)
}
