package main

import (
	"fmt"
	"strings"

	"rapidware/internal/fec"
)

// layers collects the per-layer ledger of one traced run. Every workload
// reports every metric; a layer the workload does not exercise reads 0.
type layers struct {
	ref, plain, traced     rungResult
	stageLatency, stageCPU float64
	failed, attempted      uint64
	heapPerParked          float64
	fan                    *fanLedger // nil on the echo workloads
}

// fanLedger is what the traced fan-out rung adds to the ledger: its window,
// its receivers' books, and the FEC and GF(256) timings at its codes.
type fanLedger struct {
	w                      fanWindow
	b                      fanBooks
	codes                  []fec.Params
	encodeUs, addmulGbps   float64
	decodeNs, decodeGroups int64
}

func (ly *layers) addRung(r rungResult) {
	ly.failed += r.failed
	ly.attempted += r.attempted
}

func splitChain(chain string) []string {
	if chain == "" {
		return nil
	}
	return strings.Split(chain, ",")
}

// emit prints and returns every per-layer metric.
func (ly *layers) emit() *result {
	res := newResult()
	res.Attempted, res.Failed = ly.attempted, ly.failed
	fmt.Printf("fail_ratio %.6f = failed %d / attempted %d over every rung\n",
		ratio(float64(ly.failed), float64(ly.attempted)), ly.failed, ly.attempted)
	ref, plain, tw := ly.ref.w, ly.plain.w, ly.traced.w
	d := engineDelta(tw.st0, tw.stEnd)
	dd := engineDelta(tw.st0, tw.st1)
	f := ly.fan
	wire := float64(d.BatchedWrites)
	if f != nil {
		wire = float64(f.w.rxEnd.out - f.w.rx0.out) // fan-out expands one writer entry to many datagrams
	} else {
		f = &fanLedger{}
	}
	fw, fb := f.w, f.b
	set := res.set
	rec := newDist(ly.traced.ctl.recompose)

	set("app.latency_p50_us", plain.lat.steadyUs(0.5, latBatches), "us", fmt.Sprintf("untraced engine rung, n=%d", plain.lat.n()))
	set("app.latency_p99_us", plain.lat.steadyUs(0.99, latBatches), "us", "untraced engine rung")
	set("app.open_p50_us", ly.traced.open.steadyUs(0.5, probeBatches), "us", fmt.Sprintf("n=%d", ly.traced.open.n()))
	set("app.open_p99_us", ly.traced.open.steadyUs(0.99, probeBatches), "us", "")
	set("app.control_p99_us", newDist(ly.traced.ctl.all).steadyUs(0.99, probeBatches), "us", fmt.Sprintf("n=%d control operations", len(ly.traced.ctl.all)))
	set("ref.latency_p50_us", ref.lat.us(0.5), "us", fmt.Sprintf("raw netbatch relay, n=%d", ref.lat.n()))
	set("ref.cpu_us_per_pkt", cpuPerPkt(ref), "us", fmt.Sprintf("%d deliveries", ref.deliveries))
	set("loadgen.late_p50_us", plain.late.us(0.5), "us", fmt.Sprintf("n=%d sends", plain.late.n()))
	set("loadgen.late_p99_us", plain.late.us(0.99), "us", "")
	set("trace.overhead_p50_us", tw.lat.us(0.5)-plain.lat.us(0.5), "us", "traced minus untraced latency p50")
	set("netbatch.syscalls_per_pkt", ratio(float64(d.RecvCalls+d.SendCalls), float64(d.Datagrams)+wire), "ratio",
		fmt.Sprintf("(%d recv + %d send calls) / (%d in + %.0f out datagrams)", d.RecvCalls, d.SendCalls, d.Datagrams, wire))
	set("netbatch.recv_fill", ratio(float64(d.Datagrams), float64(d.RecvCalls)), "dgram", "datagrams per receive call")
	set("netbatch.send_fill", ratio(wire, float64(d.SendCalls)), "dgram", "datagrams per send call")
	set("engine.self_latency_p50_us", plain.lat.us(0.5)-ref.lat.us(0.5), "us", "latency_p50 minus ref, same run")
	set("engine.self_cpu_us_per_pkt", cpuPerPkt(plain)-cpuPerPkt(ref), "us", "cpu_us_per_pkt minus ref, same run")
	set("engine.queue_drops", float64(tw.drops), "count", "session queue drops in the window")
	set("engine.write_drops", float64(dd.WriteDrops), "count", "")
	set("engine.rejected", float64(dd.Rejected), "count", "")
	set("engine.malformed", float64(dd.Malformed), "count", "")
	set("engine.chain_errors", float64(dd.ChainErrors), "count", "")
	set("engine.write_batch", ratio(float64(d.BatchedWrites), float64(d.WriteFlushes)), "entry", "writer entries per flush")
	set("engine.goroutines_per_live_session", plain.goroutinesPerLive, "count", fmt.Sprintf("%d live sessions", plain.live))
	set("engine.heap_b_per_live_session", plain.heapPerLive, "B", "")
	set("filter.stage_latency_us", ly.stageLatency, "us", "(chain - empty chain) latency p50 / stages")
	set("filter.stage_cpu_us", ly.stageCPU, "us", "(chain - empty chain) cpu per packet / stages")
	set("compose.recompose_p50_us", rec.us(0.5), "us", fmt.Sprintf("n=%d RecomposeSession calls", rec.n()))
	set("compose.control_errors", float64(ly.traced.ctl.errs), "count", fmt.Sprintf("of %d control operations", ly.traced.ctl.calls))
	set("engine.cohort.count", float64(fw.rx1.cohorts), "count", "cohorts at the end of the window")
	set("engine.cohort.bypass_share", ratio(float64(d.BypassHits), float64(d.BatchedWrites)), "ratio", "bypass-lane writer entries / writer entries")
	set("engine.cohort.coalesced_share", ratio(float64(d.CoalescedSends), float64(d.BatchedWrites)), "ratio", "coalesced cohort writer entries / writer entries")
	set("engine.cohort.migrations", float64(fw.rxEnd.retunes), "count", "receiver cohort moves, set-up convergence and window")
	set("engine.cohort.receiver_drops", float64(fw.rx1.drops-fw.rx0.drops), "count", "per-receiver drops in the window")
	set("fec.encode_us_per_group", f.encodeUs, "us", fmt.Sprintf("timed Coder.EncodeParityInto, %v, %d B shares", f.codes, fanPayload+2))
	set("fec.decode_us_per_group", ratio(float64(f.decodeNs)/1e3, float64(f.decodeGroups)), "us", fmt.Sprintf("time in BlockDecoder.Add per group, %d groups", f.decodeGroups))
	set("fec.parity_overhead", ratio(float64(fb.parity), float64(fb.data)), "ratio", fmt.Sprintf("%d parity / %d data frames at FEC receivers", fb.parity, fb.data))
	set("gf256.addmul_gbps", f.addmulGbps, "GB/s", fmt.Sprintf("AddMulSlice over %d B", fanPayload+2))
	set("fec.recovered_share", ratio(float64(fb.recovered), float64(fb.simLost)), "ratio",
		fmt.Sprintf("%d recovered / %d data frames lost on arrival at FEC receivers", fb.recovered, fb.simLost))
	set("arq.nacks", float64(dd.Nacks), "count", "NACKs the engine accepted")
	set("arq.retransmits_per_nack", ratio(float64(dd.Retransmits), float64(dd.Nacks)), "ratio", "")
	set("arq.repair_p50_ms", fb.repair.ms(0.5), "ms", fmt.Sprintf("n=%d, first NACK to repaired frame", fb.repair.n()))
	set("raplet.reports", float64(dd.Feedback), "count", "receiver reports the engine accepted")
	set("raplet.retunes", float64(fw.rx1.adaptRetunes), "count", "set-up convergence and window")
	set("raplet.retune_p50_ms", fb.retune.ms(0.5), "ms", fmt.Sprintf("n=%d, report crossing a level to the first frame at the new code", fb.retune.n()))
	set("engine.park.parks", float64(dd.Parks), "count", "")
	set("engine.park.unparks", float64(dd.Unparks), "count", "")
	set("engine.park.harvested", float64(dd.Harvested), "count", "")
	set("engine.park.admission_drops", float64(dd.AdmissionDrops), "count", "")
	set("engine.park.heap_b_per_parked_session", ly.heapPerParked, "B", "after every session idled into its parked record")
	set("engine.park.live_sessions", float64(tw.stEnd.LiveSessions), "count", fmt.Sprintf("at the window's end, of %d registered", tw.stEnd.ActiveSessions))
	return res
}
