package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rapidware/internal/adapt"
	"rapidware/internal/engine"
	"rapidware/internal/fec"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// fanout-mixed is the paper's scenario: two real-time sources relayed to a
// population of wireless receivers on different links. Each receiver applies
// its own seeded loss model to what arrives, reports its loss upstream,
// NACKs gaps when the engine has put it on ARQ, and FEC-decodes what the
// engine protects. All receivers share one socket (see pktinfo.go); the
// sources share another.

// fanClass is one receiver population.
type fanClass struct {
	name  string
	count int
	loss  float64 // loss applied on arrival
	rttMs uint32  // the RTT the receiver reports; >= 150 ms at low loss selects ARQ
	mech  string  // the repair mechanism the engine should settle on
	k, n  int     // the FEC code it should settle on (mech "fec")
	lossy bool
}

// roaming makes a quarter of the lossy receivers roam between the FEC loss
// levels during the window (-engine-defects).
var roaming bool

var fanClasses = []fanClass{
	{name: "clean", count: 16, rttMs: 2, mech: "none"},
	{name: "fec-6%", count: 8, loss: 0.06, rttMs: 2, mech: "fec", k: 4, n: 6, lossy: true},
	{name: "fec-15%", count: 4, loss: 0.15, rttMs: 2, mech: "fec", k: 4, n: 8, lossy: true},
	{name: "arq-3%", count: 4, loss: 0.03, rttMs: 200, mech: "arq", lossy: true},
}

const (
	fanSources = 2
	fanRate    = 500 // trunk datagrams per second, both sources together
	fanPayload = 1200
	// Receivers report the loss they saw over their last lossWindow frames
	// of a session, every reportEvery, once minReport frames are in. With
	// fewer than 400 frames a 3 % receiver's estimate leaves the ARQ band
	// (1-5 %) often enough that most set-ups wait on one unlucky receiver.
	lossWindow  = 1000
	minReport   = 400
	reportEvery = 100e6
	// With -engine-defects, roaming receivers swap between the two FEC loss
	// levels every roamPeriod, each at its own seeded phase.
	roamPeriod = 3e9
	roamHigh   = 0.15
	roamLow    = 0.06
	// NACKs are repeated after nackRetry, at most nackTries times.
	nackRetry = 40e6
	nackTries = 4
	// fanProbes is how many fresh source sessions the open probe starts.
	fanProbes = 300
	// Set-up primes the sources in steps of primeStep and looks at the
	// cohorts after each.
	primeStep = 10e6
)

// fanStream is one receiver's view of one source session.
type fanStream struct {
	win         [lossWindow]bool
	pos, filled int
	lost        int
	lastReport  int64
	reportSeq   uint64
	highest     uint64
	// ARQ gap detection over the trunk sequence numbers.
	started bool
	expect  uint64
	// Retune timing: level is the code the receiver's reports last
	// selected (a lossless link's before the first report); crossAt is when
	// a report crossed to want, 0 when no retune is outstanding.
	level   fec.Params
	want    fec.Params
	crossAt int64
	nackSeq uint64
}

func (s *fanStream) observe(lost bool) {
	if s.filled == lossWindow {
		if s.win[s.pos] {
			s.lost--
		}
	} else {
		s.filled++
	}
	s.win[s.pos] = lost
	if lost {
		s.lost++
	}
	s.pos = (s.pos + 1) % lossWindow
}

type nackEntry struct {
	first, last int64
	tries       int
	repaired    bool
}

type decKey struct {
	src  int
	k, n uint8
}

type decState struct {
	d   *fec.BlockDecoder
	top uint32
}

// fanRx is one receiver. Everything in it belongs to the receiver
// goroutine.
type fanRx struct {
	idx     int
	addr    netip.AddrPort
	class   *fanClass
	ci      int // index of class in fanClasses
	roam    bool
	phase   int64
	rng     *rand.Rand
	oob     []byte
	streams [fanSources]fanStream
	arrived [numKinds]bitset // what reached the socket: the engine's deliveries
	app     bitset           // window frames the application ended up with
	nacked  map[uint64]*nackEntry
	decs    map[decKey]*decState
	scanAt  int64

	dataArrivals, parityArrivals, simLostData, recovered, appData uint64
}

func (r *fanRx) lossAt(now, roamStart int64) float64 {
	if !r.roam || roamStart == 0 || now < roamStart+r.phase {
		return r.class.loss
	}
	if ((now-roamStart-r.phase)/roamPeriod)%2 == 0 {
		if r.class.loss == roamHigh {
			return roamLow
		}
		return roamHigh
	}
	return r.class.loss
}

// fanLoad is the sources and the receiver population.
type fanLoad struct {
	seed     uint64
	policy   adapt.Policy
	src, rxc *net.UDPConn
	dst      netip.AddrPort
	sessions [fanSources]uint32
	probeIDs []uint32
	rx       []*fanRx
	tr       *tracer

	buf     []byte
	nextSeq map[uint32]uint64 // per-session trunk sequence, sender-owned
	done    sync.WaitGroup

	sent                           [numKinds]atomic.Uint64
	arrivals                       [numKinds]atomic.Uint64 // first arrivals at the receiver socket
	appDeliveries                  atomic.Uint64
	bad, misrouted, dups, sendErrs atomic.Uint64
	dupLog                         []string // the first duplicates, named; receiver goroutine only
	windowStart                    atomic.Int64
	// forget asks the receiver goroutine to drop its FEC decoders and NACK
	// books before the heap is weighed; forgotten confirms it did.
	forget, forgotten atomic.Bool
	recvCalls         atomic.Uint64

	probeSeen    bitset
	mu           sync.Mutex
	lat          []int64   // window frames delivered to the applications
	latClass     [][]int64 // the same, per receiver class
	open         []int64
	repair       []int64
	retune       []int64
	decodeNs     int64
	decodeGroups int64
}

// newFanLoad binds the sockets and starts the receiver goroutine. Each
// set-up repetition rep draws its receivers' loss from its own seeded
// streams, so the median set-up time is taken over independent loss draws.
func newFanLoad(seed uint64, rep int, capacity [numKinds]int, tr *tracer) (*fanLoad, error) {
	rng := rand.New(rand.NewPCG(seed, 0x66616e))
	l := &fanLoad{
		seed: seed, policy: adapt.DefaultPolicy(), tr: tr,
		buf:       make([]byte, packet.SessionIDSize+packet.HeaderSize+fanPayload),
		nextSeq:   make(map[uint32]uint64),
		probeSeen: newBitset(capacity[kindProbe]),
	}
	// Sample buffers are allocated up front so their growth is not counted
	// as engine heap.
	receivers := 0
	for _, c := range fanClasses {
		receivers += c.count
	}
	l.lat = make([]int64, 0, capacity[kindData]*receivers)
	l.latClass = make([][]int64, len(fanClasses))
	for i, c := range fanClasses {
		l.latClass[i] = make([]int64, 0, capacity[kindData]*c.count)
	}
	l.repair = make([]int64, 0, capacity[kindData])
	l.retune = make([]int64, 0, 1024)
	// The two sources have fixed IDs, so their placement on the engine's
	// shards is part of the workload's shape rather than a coin the seed
	// flips; the probe sessions are drawn from the seed.
	for i := range l.sessions {
		l.sessions[i] = uint32(2*i + 1)
	}
	l.probeIDs = freshIDs(rng, l.sessions[:], fanProbes)
	var err error
	if l.src, err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	if l.rxc, err = net.ListenUDP("udp4", &net.UDPAddr{}); err != nil {
		l.src.Close()
		return nil, err
	}
	_ = l.rxc.SetReadBuffer(8 << 20) // advisory; the kernel may clamp it
	if err = enablePktinfo(l.rxc); err != nil {
		l.src.Close()
		l.rxc.Close()
		return nil, err
	}
	port := l.rxc.LocalAddr().(*net.UDPAddr).AddrPort().Port()
	idx := 0
	for ci := range fanClasses {
		c := &fanClasses[ci]
		for j := 0; j < c.count; j++ {
			r := &fanRx{
				idx: idx, addr: receiverAddr(idx, port), class: c, ci: ci,
				// With roaming on, a quarter of the lossy receivers roam:
				// the first two of each FEC class.
				roam:   roaming && c.mech == "fec" && j < 2,
				phase:  int64(rng.Uint64N(roamPeriod)),
				rng:    rand.New(rand.NewPCG(seed, uint64(rep)<<32|uint64(idx)+1)),
				app:    newBitset(capacity[kindData]),
				nacked: make(map[uint64]*nackEntry),
				decs:   make(map[decKey]*decState),
			}
			r.oob = pktinfoSrc(r.addr.Addr())
			for si := range r.streams {
				// Every receiver starts at a lossless link's code, so its
				// first placement in an FEC cohort is a timed retune.
				r.streams[si].level = l.policy.Select(0)
			}
			for k := range r.arrived {
				r.arrived[k] = newBitset(capacity[k])
			}
			l.rx = append(l.rx, r)
			idx++
		}
	}
	l.done.Add(1)
	go l.read()
	return l, nil
}

func (l *fanLoad) addrs() []string {
	out := make([]string, len(l.rx))
	for i, r := range l.rx {
		out[i] = r.addr.String()
	}
	return out
}

// send emits one source datagram. It runs on the pacer's thread.
func (l *fanLoad) send(kind byte, sess uint32, g uint64, due int64) {
	d := l.buf
	seq := l.nextSeq[sess]
	l.nextSeq[sess] = seq + 1
	packet.PutSessionID(d, sess)
	hdr := packet.Packet{Seq: seq, StreamID: sess, Kind: packet.KindData}
	_ = packet.PutFrameHeader(d[packet.SessionIDSize:], &hdr, fanPayload) // fixed valid kind and size
	var flags byte
	if kind == kindProbe {
		flags = flagOpen
	}
	fillPayload(d[packet.SessionIDSize+packet.HeaderSize:], l.seed, stamp{kind: kind, flags: flags, sess: sess, g: g, due: due})
	l.sent[kind].Add(1)
	t0 := nowNs()
	if _, err := l.src.WriteToUDPAddrPort(d, l.dst); err != nil {
		l.sendErrs.Add(1)
		return
	}
	if l.tr.sampled(g) {
		l.tr.add("loadgen.send", t0, nowNs(), -1, uint64(kind)<<56|g)
	}
}

// sendTrunk sends the i-th datagram of kind, alternating the sources.
func (l *fanLoad) sendTrunk(kind byte, i int, due int64) {
	l.send(kind, l.sessions[i%fanSources], uint64(i), due)
}

func (l *fanLoad) srcIndex(sess uint32) int {
	for i, s := range l.sessions {
		if s == sess {
			return i
		}
	}
	return -1
}

func (l *fanLoad) read() {
	defer l.done.Done()
	b, err := newPktBatch(l.rxc)
	if err != nil {
		l.bad.Add(1)
		return
	}
	for {
		t0 := nowNs()
		n, err := b.read()
		if err != nil {
			return // socket closed: the run is over
		}
		now := nowNs()
		if l.forget.Load() && !l.forgotten.Load() {
			for _, r := range l.rx {
				r.decs = make(map[decKey]*decState)
				r.nacked = make(map[uint64]*nackEntry)
			}
			l.forgotten.Store(true)
		}
		for j := 0; j < n; j++ {
			if len(b.datagram(j)) == 1 {
				continue // the wake-up datagram of forgetState
			}
			dst, ok := b.dst(j)
			i := receiverIndex(dst)
			if !ok || i < 0 || i >= len(l.rx) {
				l.misrouted.Add(1)
				continue
			}
			l.handle(l.rx[i], b.datagram(j), t0, now)
		}
	}
}

// handle is one datagram's arrival at receiver r: the socket-level books
// first (what the engine delivered), then the receiver's radio (simulated
// loss), then FEC decoding, ARQ gap detection and loss reports.
func (l *fanLoad) handle(r *fanRx, d []byte, t0, now int64) {
	id, frame, err := packet.SplitSessionID(d)
	if err != nil || packet.ValidateFrame(frame) != nil {
		l.bad.Add(1)
		return
	}
	kind := packet.FrameKind(frame)
	seq := binary.BigEndian.Uint64(frame[4:])
	group := binary.BigEndian.Uint32(frame[16:])
	index, k, n := frame[20], frame[21], frame[22]
	src := l.srcIndex(id)
	var st stamp
	switch kind {
	case packet.KindData:
		var ok bool
		if st, ok = parsePayload(frame[packet.HeaderSize:], l.seed, fanPayload); !ok {
			l.bad.Add(1)
			return
		}
		if st.sess != id || (src < 0) != (st.kind == kindProbe) {
			l.misrouted.Add(1)
			return
		}
		if st.g >= l.sent[st.kind].Load() {
			l.bad.Add(1)
			return
		}
		if r.arrived[st.kind].set(st.g) {
			// A second copy is legitimate only as the answer to a NACK.
			if e := r.nacked[nackKey(src, seq)]; e == nil || n != 0 {
				if l.dups.Add(1) <= 8 {
					l.dupLog = append(l.dupLog, fmt.Sprintf("receiver %d (%s, roams %v) kind %d #%d session %d seq %d code (%d,%d) at %+.1f ms into the window",
						r.idx, r.class.name, r.roam, st.kind, st.g, id, seq, k, n, float64(now-l.windowStart.Load())/1e6))
				}
				return
			}
		} else {
			l.arrivals[st.kind].Add(1)
			r.dataArrivals++
		}
		if l.tr.sampled(st.g) {
			l.tr.add("netbatch.recvmsg", t0, now, -1, uint64(st.kind)<<56|st.g)
		}
		if st.kind == kindProbe {
			if !l.probeSeen.set(st.g) {
				l.mu.Lock()
				l.open = append(l.open, now-st.due)
				l.mu.Unlock()
			}
			return
		}
	case packet.KindParity:
		if src < 0 {
			l.misrouted.Add(1)
			return
		}
		r.parityArrivals++
	default:
		l.bad.Add(1)
		return
	}
	s := &r.streams[src]
	if s.crossAt != 0 && n != 0 && int(k) == s.want.K && int(n) == s.want.N {
		l.mu.Lock()
		l.retune = append(l.retune, now-s.crossAt)
		l.mu.Unlock()
		s.crossAt = 0
	}
	s.highest = max(s.highest, seq)
	lost := r.rng.Float64() < r.lossAt(now, l.windowStart.Load())
	s.observe(lost)
	if lost {
		if kind == packet.KindData && st.kind == kindData {
			r.simLostData++
		}
	} else if n != 0 {
		l.decode(r, src, frame, kind, seq, group, index, k, n, now)
	} else {
		l.deliver(r, src, seq, st, now, false)
		if r.class.mech == "arq" {
			l.detectGaps(r, src, seq, now)
		}
	}
	if r.class.mech == "arq" && now-r.scanAt >= 10e6 {
		r.scanAt = now
		l.retryNacks(r, now)
	}
	l.maybeReport(r, src, now)
}

func nackKey(src int, seq uint64) uint64 { return uint64(src)<<62 | seq }

// deliver hands one verified data frame to the receiver's application.
func (l *fanLoad) deliver(r *fanRx, src int, seq uint64, st stamp, now int64, recovered bool) {
	if e := r.nacked[nackKey(src, seq)]; e != nil && !e.repaired && !recovered {
		e.repaired = true
		l.mu.Lock()
		l.repair = append(l.repair, now-e.first)
		l.mu.Unlock()
	}
	if st.kind != kindData || r.app.set(st.g) {
		return
	}
	r.appData++
	l.appDeliveries.Add(1)
	if recovered {
		r.recovered++
	}
	l.mu.Lock()
	l.lat = append(l.lat, now-st.due)
	l.latClass[r.ci] = append(l.latClass[r.ci], now-st.due)
	l.mu.Unlock()
	if l.tr.sampled(st.g) {
		l.tr.add("e2e.delivery", st.due, now, -1, uint64(st.kind)<<56|st.g)
	}
}

// decode feeds one FEC-coded frame to the receiver's decoder for its code and
// delivers what comes out, checking recovered frames byte for byte.
func (l *fanLoad) decode(r *fanRx, src int, frame []byte, kind packet.Kind, seq uint64, group uint32, index, k, n uint8, now int64) {
	key := decKey{src: src, k: k, n: n}
	ds := r.decs[key]
	// A cohort built afresh numbers its groups from zero again.
	if ds == nil || group+64 < ds.top {
		ds = &decState{d: fec.NewBlockDecoder(0), top: group}
		r.decs[key] = ds
		l.decodeGroups++
	}
	if group > ds.top {
		ds.top = group
		l.decodeGroups++
	}
	payload := frame[packet.HeaderSize:]
	if kind == packet.KindParity {
		payload = append([]byte(nil), payload...) // the decoder keeps parity shares
	}
	p := &packet.Packet{Seq: seq, StreamID: binary.BigEndian.Uint32(frame[12:]), Kind: kind, Group: group, Index: index, K: k, N: n, Payload: payload}
	t0 := nowNs()
	out, err := ds.d.Add(p)
	if errors.Is(err, fec.ErrGroupMismatch) || errors.Is(err, fec.ErrDuplicate) {
		ds.d = fec.NewBlockDecoder(0)
		out, err = ds.d.Add(p)
	}
	t1 := nowNs()
	l.decodeNs += t1 - t0
	if err != nil {
		l.bad.Add(1)
		return
	}
	for _, q := range out {
		st, ok := parsePayload(q.Payload, l.seed, fanPayload)
		if !ok || st.sess != l.sessions[src] {
			l.bad.Add(1)
			continue
		}
		rec := q != p
		if rec && l.tr.sampled(st.g) {
			l.tr.add("fec.BlockDecoder.Add", t0, t1, -1, uint64(st.kind)<<56|st.g)
		}
		l.deliver(r, src, q.Seq, st, now, rec)
	}
}

// detectGaps NACKs the trunk sequence numbers an ARQ receiver skipped.
func (l *fanLoad) detectGaps(r *fanRx, src int, seq uint64, now int64) {
	s := &r.streams[src]
	if !s.started {
		s.started, s.expect = true, seq+1
		return
	}
	if seq < s.expect {
		return // a retransmission or a reordered frame
	}
	var missing []uint64
	for q := max(s.expect, seq-packet.MaxNackSeqs); q < seq; q++ {
		if r.nacked[nackKey(src, q)] == nil {
			r.nacked[nackKey(src, q)] = &nackEntry{first: now, last: now, tries: 1}
			missing = append(missing, q)
		}
	}
	s.expect = seq + 1
	if len(missing) > 0 {
		l.sendNack(r, src, missing)
	}
}

// retryNacks repeats NACKs whose repair has not arrived.
func (l *fanLoad) retryNacks(r *fanRx, now int64) {
	var again [fanSources][]uint64
	for key, e := range r.nacked {
		if !e.repaired && e.tries < nackTries && now-e.last >= nackRetry {
			e.tries++
			e.last = now
			src := int(key >> 62)
			if len(again[src]) < packet.MaxNackSeqs {
				again[src] = append(again[src], key&(1<<62-1))
			}
		}
	}
	for src, seqs := range again {
		if len(seqs) > 0 {
			l.sendNack(r, src, seqs)
		}
	}
}

func (l *fanLoad) sendNack(r *fanRx, src int, seqs []uint64) {
	s := &r.streams[src]
	s.nackSeq++
	sess := l.sessions[src]
	d, err := packet.AppendNackDatagram(nil, sess, s.nackSeq, sess, seqs)
	if err == nil {
		_, _, err = l.rxc.WriteMsgUDPAddrPort(d, r.oob, l.dst)
	}
	if err != nil {
		l.sendErrs.Add(1)
	}
}

// maybeReport sends the receiver's loss report for one session when due, and
// notes when a report crosses to a new FEC level (retune timing).
func (l *fanLoad) maybeReport(r *fanRx, src int, now int64) {
	s := &r.streams[src]
	if now-s.lastReport < reportEvery || s.filled < minReport {
		return
	}
	s.lastReport = now
	s.reportSeq++
	rep := packet.Report{
		HighestSeq: s.highest, Received: uint32(s.filled - s.lost), Lost: uint32(s.lost),
		Window: uint32(s.filled), RTTMillis: r.class.rttMs,
	}
	mech, params := l.policy.Decide(rep.LossFraction(), rep.RTTMillis)
	if mech == adapt.MechanismFEC && params != s.level {
		s.crossAt, s.want = now, params
	}
	s.level = params
	sess := l.sessions[src]
	d, err := packet.AppendReportDatagram(nil, sess, s.reportSeq, sess, rep)
	if err == nil {
		_, _, err = l.rxc.WriteMsgUDPAddrPort(d, r.oob, l.dst)
	}
	if err != nil {
		l.sendErrs.Add(1)
	}
}

// delivered returns how many first arrivals of kind the receiver socket has
// seen across all receivers, and how many were due.
func (l *fanLoad) delivered(kind int) (got, due uint64) {
	return l.arrivals[kind].Load(), l.sent[kind].Load() * uint64(len(l.rx))
}

func (l *fanLoad) drain(kinds []int, timeoutNs int64) {
	deadline := nowNs() + timeoutNs
	for nowNs() < deadline {
		done := true
		for _, k := range kinds {
			if got, due := l.delivered(k); got < due {
				done = false
			}
		}
		if done {
			return
		}
		sleepNs(1e6)
	}
}

// forgetState makes the receivers drop what they allocated while decoding,
// so the heap weighed next is the engine's, not the harness's.
func (l *fanLoad) forgetState() {
	l.forget.Store(true)
	wake := l.rx[0].addr
	for i := 0; i < 100 && !l.forgotten.Load(); i++ {
		_, _ = l.src.WriteToUDPAddrPort([]byte{0}, wake) // best effort; retried below
		sleepNs(1e6)
	}
}

func (l *fanLoad) close() {
	l.src.Close()
	l.rxc.Close()
	l.done.Wait()
}

// converged marks each receiver of each session that sits in the cohort its
// class should settle on, and reports whether every one has been marked. A
// receiver's loss estimate is noisy, so its cohort can flip on any report;
// set-up waits until each has been placed right once, not for all of them to
// be right at the same instant.
func (l *fanLoad) converged(eng *engine.Engine, placed []bool) bool {
	for si, id := range l.sessions {
		s := eng.Session(id)
		if s == nil {
			return false
		}
		for _, rs := range s.Stats().Receivers {
			ap, err := netip.ParseAddrPort(rs.Receiver)
			if err != nil {
				continue
			}
			i := receiverIndex(ap.Addr())
			if i < 0 || i >= len(l.rx) {
				continue
			}
			c := l.rx[i].class
			if rs.Mechanism == c.mech && (c.mech != "fec" || (rs.K == c.k && rs.N == c.n)) {
				placed[si*len(l.rx)+i] = true
			}
		}
	}
	return !slices.Contains(placed, false)
}

// fanRun is one set-up of fanout-mixed.
type fanRun struct {
	eng    *engine.Engine
	raw    *rawRelay
	load   *fanLoad
	late   []int64 // the window's lateness samples, allocated before heap0
	heap0  int64
	gor0   int
	setupS float64
}

func (r *fanRun) setupSeconds() float64 { return r.setupS }

func setupFanout(seed uint64, rep int, ref bool, seconds float64, tr *tracer) (*fanRun, error) {
	var capacity [numKinds]int
	capacity[kindData] = int(fanRate*seconds*1.1) + 1024
	capacity[kindPrime] = fanRate * 30
	capacity[kindTail] = fanRate
	capacity[kindProbe] = fanProbes
	load, err := newFanLoad(seed, rep, capacity, tr)
	if err != nil {
		return nil, err
	}
	r := &fanRun{load: load, late: make([]int64, 0, capacity[kindData])}
	r.heap0 = heapInuse()
	r.gor0 = runtime.NumGoroutine()
	t0 := nowNs()
	if ref {
		fan := make([]netip.AddrPort, len(load.rx))
		for i, rx := range load.rx {
			fan[i] = rx.addr
		}
		if r.raw, err = startRawRelay(fan); err != nil {
			load.close()
			return nil, err
		}
		load.dst = r.raw.addr()
	} else {
		r.eng, err = engine.New(engine.Config{Name: "relaybench", ListenAddr: "127.0.0.1:0", Adapt: true, Fanout: load.addrs()})
		if err == nil {
			err = r.eng.Start()
		}
		if err != nil {
			load.close()
			return nil, err
		}
		load.dst = r.eng.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	tr.add("setup.relay", t0, nowNs(), -1, 0)
	// Prime on one schedule until every receiver has been placed in its
	// class's cohort (the reference relay has no cohorts: a 100 ms warm-up).
	period := int64(1e9 / fanRate)
	perStep := int(primeStep / period)
	placed := make([]bool, fanSources*len(load.rx))
	t1 := nowNs()
	for k := 0; ; k++ {
		from, base := t1+int64(k)*primeStep, k*perStep
		pace(from, from+primeStep, period, nil, func(i int, due int64) { load.sendTrunk(kindPrime, base+i, due) })
		if ref && int64(k+1)*primeStep >= 100e6 || !ref && load.converged(r.eng, placed) {
			break
		}
		if base+2*perStep > capacity[kindPrime] {
			r.close()
			return nil, fmt.Errorf("cohorts did not converge after %d datagrams", base+perStep)
		}
	}
	tr.add("setup.converge", t1, nowNs(), -1, 0)
	if r.eng != nil {
		for _, st := range r.eng.SessionStats() {
			if load.srcIndex(st.ID) >= 0 {
				fmt.Printf("source session %d on shard %d of %d\n", st.ID, st.Shard, r.eng.Shards())
			}
		}
	}
	r.setupS = float64(nowNs()-t0) / 1e9
	return r, nil
}

func (r *fanRun) close() {
	if r.eng != nil {
		r.eng.Close()
	}
	if r.raw != nil {
		r.raw.close()
	}
	r.load.close()
}

// rxTotals sums the engine's per-receiver counters over both sessions.
type rxTotals struct {
	out, drops, retunes, adaptRetunes uint64
	cohorts                           int
}

func (r *fanRun) rxTotals() rxTotals {
	var t rxTotals
	if r.eng == nil {
		return t
	}
	for _, id := range r.load.sessions {
		s := r.eng.Session(id)
		if s == nil {
			continue
		}
		st := s.Stats()
		t.cohorts += st.Cohorts
		if st.Adapt != nil {
			t.adaptRetunes += st.Adapt.Retunes
		}
		for _, rs := range st.Receivers {
			t.out += rs.OutPackets
			t.drops += rs.Drops
			t.retunes += rs.Retunes
		}
	}
	return t
}

// fanWindow is what one timed window of fanout-mixed measured.
type fanWindow struct {
	window
	rx0, rxEnd, rx1 rxTotals
	// receivers is what the engine reported for each receiver of each source
	// after the drain, to name where a receiver's missing frames went.
	receivers [fanSources]map[string]metrics.ReceiverStats
}

func (r *fanRun) measure(seconds float64, tr *tracer) fanWindow {
	var w fanWindow
	l := r.load
	period := int64(1e9 / fanRate)
	start := nowNs() + 20e6
	end := start + int64(seconds*1e9)
	if r.eng != nil {
		w.st0 = r.eng.Stats()
		w.drops = sessionDrops(r.eng)
	}
	w.rx0 = r.rxTotals()
	l.windowStart.Store(start)
	app0 := l.appDeliveries.Load()
	for nowNs() < start-2e6 {
		sleepNs(1e6)
	}
	cpu0 := cpuNs()
	slicer := newCPUSlicer(start, l.appDeliveries.Load)
	late := pace(start, end, period, r.late, func(i int, due int64) {
		slicer.tick(due)
		l.sendTrunk(kindData, i, due)
	})
	w.cpuNs = cpuNs() - cpu0
	w.cpuSlices = slicer.close()
	w.deliveries = l.appDeliveries.Load() - app0
	if r.eng != nil {
		w.stEnd = r.eng.Stats()
	}
	w.rxEnd = r.rxTotals()
	// Keep the sources going briefly so FEC groups the window left open
	// complete, then let repairs and stragglers land.
	pace(end, end+300e6, period, nil, func(i int, due int64) { l.sendTrunk(kindTail, i, due) })
	l.drain([]int{kindData, kindTail}, 1e9)
	sleepNs(200e6)
	if r.eng != nil {
		w.st1 = r.eng.Stats()
		w.drops = sessionDrops(r.eng) - w.drops
		w.rx1 = r.rxTotals()
		l.forgetState()
		w.weigh(r.eng, r.heap0, r.gor0)
		for si, id := range l.sessions {
			w.receivers[si] = make(map[string]metrics.ReceiverStats)
			if s := r.eng.Session(id); s != nil {
				for _, rs := range s.Stats().Receivers {
					w.receivers[si][rs.Receiver] = rs
				}
			}
		}
	}
	w.late = newDist(late)
	return w
}

// probe opens fresh source sessions (first-datagram latency to the first
// receiver) and times control operations on the two trunks.
func (r *fanRun) probe(tr *tracer) controlTimes {
	l := r.load
	per := fanProbes / probeBatches
	for b := 0; b < probeBatches; b++ {
		batch := l.probeIDs[b*per : (b+1)*per]
		start := nowNs() + 5e6
		pace(start, start+int64(per)*5e6, 5e6, nil, func(i int, due int64) {
			l.send(kindProbe, batch[i], uint64(b*per+i), due)
		})
		l.drain([]int{kindProbe}, 2e9)
		for _, id := range batch {
			_ = r.eng.CloseSession(id) // a session that never opened has nothing to close
		}
	}
	ct := newControlTimes(probeControls)
	start := nowNs() + 5e6
	timeControls(r.eng, tr, "", "counting", l.sessions[:], start, start+probeControls*1e6, 1e6, &ct)
	return ct
}

// books closes the run's accounts once the receiver goroutine has exited.
type fanBooks struct {
	attempted, failed         uint64
	failLine                  string
	lossyDue, lossyApp        uint64
	simLost, recovered        uint64
	data, parity              uint64
	lat, open, repair, retune dist
}

func (r *fanRun) books(ct controlTimes) fanBooks {
	l := r.load
	var b fanBooks
	var missing uint64
	for _, k := range []int{kindData, kindProbe} {
		got, due := l.delivered(k)
		missing += due - got
		b.attempted += due
	}
	bad, mis, dup, se := l.bad.Load(), l.misrouted.Load(), l.dups.Load(), l.sendErrs.Load()
	b.attempted += ct.calls
	b.failed = missing + bad + mis + dup + se + ct.errs
	b.failLine = fmt.Sprintf("missing %d  corrupted %d  misrouted %d  duplicated %d  send-errors %d  control-errors %d",
		missing, bad, mis, dup, se, ct.errs)
	for _, rx := range l.rx {
		if rx.class.lossy {
			b.lossyDue += l.sent[kindData].Load()
			b.lossyApp += rx.appData
		}
		if rx.class.mech == "fec" {
			b.simLost += rx.simLostData
			b.recovered += rx.recovered
			b.data += rx.dataArrivals
			b.parity += rx.parityArrivals
		}
	}
	b.lat, b.open, b.repair, b.retune = newDist(l.lat), newDist(l.open), newDist(l.repair), newDist(l.retune)
	return b
}

// missingWindow names each receiver that lacks window frames of a source,
// with what the engine reported for it.
func (r *fanRun) missingWindow(w fanWindow) []string {
	l := r.load
	var out []string
	for _, rx := range l.rx {
		var miss [fanSources]int
		for g := uint64(0); g < l.sent[kindData].Load(); g++ {
			if !rx.arrived[kindData].has(g) {
				miss[g%fanSources]++
			}
		}
		for si, n := range miss {
			if n == 0 {
				continue
			}
			rs := w.receivers[si][rx.addr.String()]
			out = append(out, fmt.Sprintf("receiver %d (%s) session %d: %d window frames; engine: %s (%d,%d) out %d drops %d retunes %d reports %d",
				rx.idx, rx.class.name, l.sessions[si], n, rs.Mechanism, rs.N, rs.K, rs.OutPackets, rs.Drops, rs.Retunes, rs.Reports))
		}
	}
	return out
}

func fanoutE2E(seed uint64, seconds float64) (*result, error) {
	r, setups, err := medianSetup(func(rep int) (*fanRun, error) { return setupFanout(seed, rep, false, seconds, nil) })
	if err != nil {
		return nil, err
	}
	w := r.measure(seconds, nil)
	ct := r.probe(nil)
	r.close()
	b := r.books(ct)
	l := r.load
	ctl := newDist(ct.all)

	res := newResult()
	res.Attempted, res.Failed = b.attempted, b.failed
	fmt.Printf("fail_ratio %.6f = failed %d / attempted %d (%d window frames x %d receivers + %d probe frames x %d receivers + %d control operations)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted, l.sent[kindData].Load(), len(l.rx),
		l.sent[kindProbe].Load(), len(l.rx), ct.calls)
	fmt.Printf("failures: %s\n", b.failLine)
	for _, d := range l.dupLog {
		fmt.Printf("duplicate: %s\n", d)
	}
	for _, m := range r.missingWindow(w) {
		fmt.Printf("missing: %s\n", m)
	}
	got, due := l.delivered(kindData)
	fmt.Printf("conservation: due %d = delivered %d + receiver-drops %d + write-drops %d + session-drops %d + unexplained %d\n",
		due, got, w.rx1.drops-w.rx0.drops, w.st1.WriteDrops-w.st0.WriteDrops, w.drops,
		int64(due)-int64(got)-int64(w.rx1.drops-w.rx0.drops)-int64(w.st1.WriteDrops-w.st0.WriteDrops)-int64(w.drops))
	report("latency_p50_us", b.lat.steadyUs(0.50, latBatches), "us", fmt.Sprintf("n=%d application deliveries (direct, FEC-recovered, ARQ-repaired)", b.lat.n()))
	report("latency_p99_us", b.lat.steadyUs(0.99, latBatches), "us", fmt.Sprintf("n=%d", b.lat.n()))
	report("open_p50_us", b.open.steadyUs(0.50, probeBatches), "us", fmt.Sprintf("n=%d fresh source sessions, to the first receiver", b.open.n()))
	report("open_p99_us", b.open.steadyUs(0.99, probeBatches), "us", fmt.Sprintf("n=%d", b.open.n()))
	report("control_p99_us", ctl.steadyUs(0.99, probeBatches), "us", fmt.Sprintf("n=%d trunk control operations after the window", ctl.n()))
	res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups to converged cohorts, min %.4f max %.4f", len(setups), slices.Min(setups), slices.Max(setups)))
	res.set("cpu_us_per_pkt", cpuPerPkt(w.window), "us",
		fmt.Sprintf("median over %d one-second slices; whole window: CPU %.3fs / %d application deliveries", len(w.cpuSlices), float64(w.cpuNs)/1e9, w.deliveries))
	res.set("delivered_ratio", 1-ratio(float64(b.failed), float64(b.attempted)), "ratio", "1 - fail_ratio")
	res.set("goodput_ratio", ratio(float64(b.lossyApp), float64(b.lossyDue)), "ratio",
		fmt.Sprintf("%d of %d window frames due to the lossy receivers reached their applications", b.lossyApp, b.lossyDue))
	res.set("heap_b_per_session", w.heapPerSession, "B", fmt.Sprintf("over %d registered sessions", w.sessions))
	for i, c := range fanClasses {
		d := newDist(l.latClass[i])
		fmt.Printf("latency of %-8s receivers: p50 %9.1fus  p99 %9.1fus  n=%d\n", c.name, d.us(0.5), d.us(0.99), d.n())
	}
	fmt.Printf("retune_p50_ms %.3f ms (n=%d, report crossing a level to the first frame at the new code)\n", b.retune.ms(0.5), b.retune.n())
	return res, nil
}
