package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"time"

	"rapidware/internal/engine"
)

// echoSpec shapes one echo workload.
type echoSpec struct {
	payload int
	rate    float64 // offered datagrams per second
	chain   string
	// ids is the number of session IDs the generator draws from: every one of
	// them round-robin (echo-small), or Zipf-popular out of an ID space about
	// three times MaxSessions (churn-park).
	ids   int
	churn bool
	// shards is the engine's reader count; 0 selects its default, one per
	// CPU. churn-park uses one: two readers opening at capacity can pick the
	// same harvest victim, and the loser refuses its datagram.
	shards int
	// parkPrimed parks every primed session at the end of set-up.
	parkPrimed bool
	maxSess    int
	idleTTL    time.Duration
	ctlRate    float64 // control operations per second during the window
	zipfS      float64
	ctlHot     int // control operations target the ctlHot most popular IDs
}

var (
	echoSmall = echoSpec{payload: 64, rate: 4000, chain: "counting,counting,counting,counting", ids: 256}
	churnPark = echoSpec{
		payload: 320, rate: 1000, chain: "counting,arq=64", ids: 3072, churn: true, shards: 1, parkPrimed: true,
		maxSess: 1024, idleTTL: 250 * time.Millisecond, ctlRate: 40, zipfS: 1.1, ctlHot: 16,
	}
)

// echoRun is one set-up of an echo workload: a relay (the engine, or the raw
// reference) and the client load driving it.
type echoRun struct {
	spec *echoSpec
	seed uint64
	eng  *engine.Engine
	raw  *rawRelay
	load *echoLoad
	ids  []uint32 // session IDs, most popular first
	rng  *rand.Rand
	zipf *rand.Zipf

	// The window's lateness and control samples, allocated before heap0 so
	// that the heap weighed after the window is the engine's alone.
	late []int64
	ctl  controlTimes

	heap0  int64 // in-use heap before the relay was built
	gor0   int
	setupS float64
}

func (r *echoRun) setupSeconds() float64 { return r.setupS }

// freshIDs draws n distinct non-zero session IDs not in used.
func freshIDs(rng *rand.Rand, used []uint32, n int) []uint32 {
	taken := make(map[uint32]bool, len(used))
	for _, id := range used {
		taken[id] = true
	}
	ids := make([]uint32, 0, n)
	for len(ids) < n {
		if id := rng.Uint32(); id != 0 && !taken[id] {
			taken[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// setupEcho builds the relay and primes its sessions. chain overrides the
// spec's chain (the empty-chain rung); ref selects the raw reference relay.
func setupEcho(spec *echoSpec, seed uint64, chain string, ref bool, seconds float64, tr *tracer) (*echoRun, error) {
	r := &echoRun{spec: spec, seed: seed, rng: rand.New(rand.NewPCG(seed, 0x65636f))}
	r.ids = freshIDs(r.rng, nil, spec.ids)
	if spec.churn {
		r.zipf = rand.NewZipf(r.rng, spec.zipfS, 1, uint64(spec.ids-1))
	}
	var capacity [numKinds]int
	capacity[kindData] = int(spec.rate*seconds*1.1) + 1024
	capacity[kindPrime] = spec.ids
	capacity[kindProbe] = probeOpens
	load, err := newEchoLoad(seed, spec.payload, capacity, tr)
	if err != nil {
		return nil, err
	}
	r.load = load
	r.late = make([]int64, 0, capacity[kindData])
	r.ctl = newControlTimes(int(spec.ctlRate*seconds) + 1)
	r.heap0 = heapInuse()
	r.gor0 = runtime.NumGoroutine()

	t0 := nowNs()
	if ref {
		if r.raw, err = startRawRelay(nil); err != nil {
			load.close()
			return nil, err
		}
		load.dst = r.raw.addr()
	} else {
		cfg := engine.Config{Name: "relaybench", ListenAddr: "127.0.0.1:0", Chain: chain, Shards: spec.shards}
		if spec.churn {
			cfg.MaxSessions = spec.maxSess
			cfg.IdleTTL = spec.idleTTL
			cfg.Admission = engine.AdmitHarvest
		}
		if r.eng, err = engine.New(cfg); err == nil {
			err = r.eng.Start()
		}
		if err != nil {
			load.close()
			return nil, err
		}
		load.dst = r.eng.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	tr.add("setup.relay", t0, nowNs(), -1, 0)
	primed := r.ids
	if spec.churn {
		primed = r.ids[:spec.maxSess]
	}
	t1 := nowNs()
	for i, id := range primed {
		load.send(kindPrime, flagOpen, id, uint64(i), nowNs())
	}
	load.drain(10e9)
	tr.add("setup.prime", t1, nowNs(), -1, 0)
	if m := load.missing(kindPrime); m > 0 {
		r.close()
		return nil, fmt.Errorf("priming: %d of %d sessions never echoed", m, len(primed))
	}
	if spec.parkPrimed && r.eng != nil {
		// Park the primed table, so the window starts where churn runs: warm
		// sessions parked, ready to unpark or to be harvested for a cold ID.
		// Left live, the full table makes the first cold IDs harvest live
		// sessions, and a datagram queued on a harvested session is lost
		// without a count (see -engine-defects).
		t2 := nowNs()
		for _, id := range primed {
			if err = r.eng.ParkSession(id); err != nil {
				r.close()
				return nil, fmt.Errorf("parking primed session %d: %w", id, err)
			}
		}
		tr.add("setup.park", t2, nowNs(), -1, 0)
	}
	r.setupS = float64(nowNs()-t0) / 1e9
	return r, nil
}

func (r *echoRun) close() {
	if r.eng != nil {
		r.eng.Close()
	}
	if r.raw != nil {
		r.raw.close()
	}
	r.load.close()
}

// pick returns the session of the i-th window datagram: round-robin over
// every ID, or a Zipf draw by popularity rank under churn. It runs on the
// pacer's thread, which owns rng.
func (r *echoRun) pick(i int) uint32 {
	if r.zipf != nil {
		return r.ids[r.zipf.Uint64()]
	}
	return r.ids[i%len(r.ids)]
}

// openFlag reports whether a datagram for id will open a session: the ID is
// not registered, or its session is parked.
func (r *echoRun) openFlag(id uint32) byte {
	if r.eng == nil {
		return 0
	}
	if s := r.eng.Session(id); s == nil || s.Parked() {
		return flagOpen
	}
	return 0
}

// probeOpens is how many fresh sessions the open-latency probe opens.
const probeOpens = 1000

// window is what one timed window of a workload measured.
type window struct {
	lat, open, late   dist
	ctl               controlTimes // control operations timed in the window
	cpuNs             int64
	cpuSlices         []float64    // CPU µs per delivery, per second of the window
	deliveries        uint64       // application deliveries inside the window
	st0, st1          engine.Stats // at window start, after the drain
	stEnd             engine.Stats // at window end
	drops             uint64       // session queue drops during the window
	heapPerSession    float64
	heapPerLive       float64
	goroutinesPerLive float64
	sessions, live    int
}

// weigh records the engine's heap and goroutines per session against the
// baseline taken before the relay was built. It runs before the window's
// samples are summarized, and the harness allocated its sample buffers
// before the baseline, so what it weighs is the engine's.
func (w *window) weigh(eng *engine.Engine, heap0 int64, gor0 int) {
	w.sessions, w.live = eng.SessionCount(), eng.Stats().LiveSessions
	heap := float64(settledHeap() - heap0)
	w.heapPerSession = ratio(heap, float64(w.sessions))
	w.heapPerLive = ratio(heap, float64(w.live))
	w.goroutinesPerLive = ratio(float64(runtime.NumGoroutine()-gor0), float64(w.live))
}

// sessionDrops sums the registered sessions' queue-drop counters.
func sessionDrops(eng *engine.Engine) uint64 {
	var n uint64
	for _, st := range eng.SessionStats() {
		n += st.Drops
	}
	return n
}

// controlOp runs the i-th operation of the control cycle against id and
// returns its duration: splice a counting stage in at the head, take it out
// again, reorder the chain, restore it. Four operations leave the chain as
// the workload built it.
func controlOp(eng *engine.Engine, tr *tracer, chain, alt string, id uint32, i int) (ns int64, recompose bool, err error) {
	t0 := nowNs()
	var name string
	switch i % 4 {
	case 0:
		name = "engine.InsertSessionStage"
		_, err = eng.InsertSessionStage(id, "", "counting", 0)
	case 1:
		name = "engine.RemoveSessionStage"
		_, err = eng.RemoveSessionStage(id, "", "0")
	case 2:
		name, recompose = "engine.RecomposeSession", true
		_, err = eng.RecomposeSession(id, "", alt)
	default:
		name, recompose = "engine.RecomposeSession", true
		_, err = eng.RecomposeSession(id, "", chain)
	}
	t1 := nowNs()
	tr.add(name, t0, t1, -1, uint64(id))
	return t1 - t0, recompose, err
}

// controlTimes is what a run of timed control operations measured.
type controlTimes struct {
	all, recompose []int64 // ns per successful call
	calls, errs    uint64
}

func newControlTimes(n int) controlTimes {
	return controlTimes{all: make([]int64, 0, n), recompose: make([]int64, 0, n/2+1)}
}

// timeControls paces control operations from start to end, one per period,
// and times each. Operation i is controlOp's i-th on ids[(i/4)%len(ids)], so
// each session gets a whole four-operation cycle in turn.
func timeControls(eng *engine.Engine, tr *tracer, chain, alt string, ids []uint32, start, end, period int64, ct *controlTimes) {
	pace(start, end, period, nil, func(i int, _ int64) {
		ns, isRec, err := controlOp(eng, tr, chain, alt, ids[(i/4)%len(ids)], i)
		ct.calls++
		if err != nil {
			ct.errs++
			return
		}
		ct.all = append(ct.all, ns)
		if isRec {
			ct.recompose = append(ct.recompose, ns)
		}
	})
}

// reversed returns a chain spec with its stages in reverse order.
func reversed(chain string) string {
	parts := strings.Split(chain, ",")
	slices.Reverse(parts)
	return strings.Join(parts, ",")
}

// measure runs the timed window: the paced generator (and, under churn, the
// paced control driver) for seconds, then a drain.
func (r *echoRun) measure(seconds float64, tr *tracer) window {
	var w window
	l := r.load
	period := int64(1e9 / r.spec.rate)
	start := nowNs() + 20e6
	end := start + int64(seconds*1e9)
	if r.eng != nil {
		w.st0 = r.eng.Stats()
		w.drops = sessionDrops(r.eng)
	}
	var ctlDone chan struct{}
	if r.spec.ctlRate > 0 && r.eng != nil {
		ctlDone = make(chan struct{})
		go func() {
			defer close(ctlDone)
			timeControls(r.eng, tr, r.spec.chain, reversed(r.spec.chain), r.ids[:r.spec.ctlHot],
				start, end, int64(1e9/r.spec.ctlRate), &r.ctl)
		}()
	}
	recv0 := l.recv[kindData].Load()
	for nowNs() < start-2e6 {
		sleepNs(1e6)
	}
	cpu0 := cpuNs()
	slicer := newCPUSlicer(start, l.recv[kindData].Load)
	late := pace(start, end, period, r.late, func(i int, due int64) {
		slicer.tick(due)
		id := r.pick(i)
		l.send(kindData, r.openFlag(id), id, uint64(i), due)
	})
	w.cpuNs = cpuNs() - cpu0
	w.cpuSlices = slicer.close()
	w.deliveries = l.recv[kindData].Load() - recv0
	if r.eng != nil {
		w.stEnd = r.eng.Stats()
	}
	if ctlDone != nil {
		<-ctlDone
	}
	l.drain(1e9)
	if r.eng != nil {
		w.st1 = r.eng.Stats()
		w.drops = sessionDrops(r.eng) - w.drops
		if r.spec.idleTTL > 0 {
			// Weigh the table once the traffic has stopped and every session
			// has idled into its parked record: the churn workload's memory
			// figure is the parked footprint (echo-small's is the live one).
			for i := 0; i < 100 && r.eng.Stats().LiveSessions > 0; i++ {
				sleepNs(20e6)
			}
		}
		w.weigh(r.eng, r.heap0, r.gor0)
	}
	l.mu.Lock()
	w.lat, w.open = newDist(l.lat), newDist(l.open)
	l.lat, l.open = l.lat[:0], l.open[:0]
	l.mu.Unlock()
	w.late, w.ctl = newDist(late), r.ctl
	return w
}

// probe measures what the window does not exercise on a steady echo
// workload: first-datagram latency on fresh sessions, and timed control
// operations on live ones. It runs after the window, with no other traffic.
func (r *echoRun) probe(tr *tracer) (open dist, ct controlTimes) {
	l := r.load
	fresh := freshIDs(r.rng, r.ids, probeOpens)
	// Open in batches and close each batch once its echoes are in, so the
	// probe never holds more than one batch of extra sessions.
	per := probeOpens / probeBatches
	for b := 0; b < probeBatches; b++ {
		batch := fresh[b*per : (b+1)*per]
		start := nowNs() + 5e6
		pace(start, start+int64(per)*500e3, 500e3, nil, func(i int, due int64) {
			l.send(kindProbe, flagOpen, batch[i], uint64(b*per+i), due)
		})
		l.drain(2e9)
		for _, id := range batch {
			_ = r.eng.CloseSession(id) // a session that never opened has nothing to close
		}
	}
	l.mu.Lock()
	open = newDist(l.open)
	l.open = l.open[:0]
	l.mu.Unlock()
	ct = newControlTimes(probeControls)
	start := nowNs() + 5e6
	timeControls(r.eng, tr, r.spec.chain, reversed(r.spec.chain), r.ids, start, start+probeControls*1e6, 1e6, &ct)
	return open, ct
}

// probeControls is how many control operations the probe times.
const probeControls = 1000
