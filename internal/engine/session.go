package engine

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/metrics"
	"rapidware/internal/multicast"
	"rapidware/internal/packet"
)

// Session is one proxied stream inside an Engine. Its identity, counters and
// peer pinning live directly on the struct and survive for the session's whole
// registered lifetime; everything that costs resources at scale — the stage
// slice, its worker goroutine, the inbound queue, the receiver adaptation
// loops and the delivery tree — lives behind one atomic pointer to a
// chainState, so an idle session can be parked down to this struct plus a
// retained plan and later rebuilt transparently (see park.go). Sessions are
// created on demand by the engine's read loop when a datagram with an unknown
// session ID arrives: the read loop registers the bare record, and the
// opening datagram builds the first incarnation exactly as a datagram for a
// parked session rebuilds one.
type Session struct {
	id  uint32
	eng *Engine
	// shard is the slice of the engine's data plane that owns this session:
	// its table shard holds the registration and its writer carries all of
	// the session's output.
	shard *shard

	// cs is the session's chain-bound state: nil exactly while the session is
	// parked. The data path loads it once per packet; park/unpark swap it
	// under parkMu.
	cs atomic.Pointer[chainState]

	// parkMu serializes the build/park/close lifecycle transitions. The
	// fields below it are the "compact parked record": what remains of a
	// session when its chain is gone. A record that was never built yet is
	// not parked (it holds the engine's trunk plan).
	parkMu      sync.Mutex
	parked      atomic.Bool
	parkedPlan  compose.Plan        // canonical trunk plan retained at park (guarded by parkMu)
	parkedAdapt *metrics.AdaptStats // last adaptation snapshot, for stats while parked (guarded by parkMu)

	counters metrics.SessionCounters

	// ctlActivity counts control-plane touches (recompose and friends) so an
	// operator working on a session keeps it from being harvested; together
	// with the packet counters it forms the activity sum the maintenance tick
	// compares against idleSeen — no per-packet clock reads anywhere.
	ctlActivity atomic.Uint64
	idleSeen    atomic.Uint64 // activity sum at the last maintenance observation
	idleSince   atomic.Int64  // unix nanos of the last observed activity change

	// repairs reports FEC reconstruction counts from decoder stages built
	// into the chain (past and present — a recomposed-away decoder's final
	// count still tells the truth about the session's history); read at
	// snapshot time, never on the data path.
	repairsMu sync.Mutex
	repairs   []func() uint64

	done chan struct{}

	closeOnce sync.Once

	peerMu sync.RWMutex
	peer   netip.AddrPort
}

// chainState is one incarnation of a session's running machinery: the
// composed stage slice, the inbound datagram queue and the worker goroutine
// that runs every queued datagram through the slice, and — when configured —
// the adaptation plane and the per-receiver delivery tree. Park discards the
// whole incarnation and unpark builds a fresh one from the session's
// retained plan.
type chainState struct {
	// live owns the trunk's stage slice and its composition plan; all
	// structural mutation — control-plane recompose, adaptation splices —
	// goes through it, and the worker runs datagrams through it.
	live *compose.Live

	// adaptor holds the incarnation's receiver adaptation loops; nil when
	// the engine runs without the feedback plane.
	adaptor *sessionAdaptor

	// tree is the session's per-receiver delivery tree: the trunk's output
	// is cloned by reference into one delivery cohort per protection level.
	// nil on unicast sessions and on plain (branch-less) fan-out.
	tree *deliveryTree

	in     chan *packet.Buf
	stop   chan struct{} // closed by park or close: the worker flushes and exits
	exited chan struct{} // closed by the worker as it exits

	// retired is set (under the session's parkMu) before a deliberate stop —
	// park or close — so a queued adaptation apply for this incarnation does
	// nothing and a worker stopping with an error does not evict.
	retired atomic.Bool
}

// newSession returns the registration record for a new session: identity,
// counters and peer, with the engine's trunk plan as its retained plan. The
// first datagram builds its incarnation (deliver).
func newSession(e *Engine, id uint32, peer netip.AddrPort) *Session {
	s := &Session{
		id:         id,
		eng:        e,
		shard:      e.shardFor(id),
		done:       make(chan struct{}),
		peer:       peer,
		parkedPlan: e.trunkPlan,
	}
	s.idleSince.Store(time.Now().UnixNano())
	return s
}

// buildChainState assembles one incarnation of a session from the given
// trunk plan and starts its worker. The caller holds parkMu and publishes
// the result.
func (e *Engine) buildChainState(s *Session, plan compose.Plan) (*chainState, error) {
	cs := &chainState{
		in:     make(chan *packet.Buf, e.cfg.QueueDepth),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	live, err := compose.New(e.reg, s.composeEnv(), e.trunkMode(), plan, func(b *packet.Buf) { s.send(cs, b) })
	if err != nil {
		return nil, fmt.Errorf("engine: session %d chain: %w", s.id, err)
	}
	cs.live = live
	if e.adaptOn {
		a, err := newSessionAdaptor(s, cs)
		if err != nil {
			return nil, fmt.Errorf("engine: session %d adaptor: %w", s.id, err)
		}
		cs.adaptor = a
	}
	if e.branching {
		// Build the delivery tree (and one cohort per current protection
		// level) before the session can run a packet, so the first trunk frame
		// already fans out through fully primed cohorts.
		cs.tree = newDeliveryTree(s, cs)
		cs.tree.reconcile()
	}
	tracked := e.trackWorker()
	go s.work(cs, tracked)
	return cs, nil
}

// work is an incarnation's worker: it runs every queued datagram through the
// stage slice, inline, straight into send, until park or close stops it. A
// stage error ends the incarnation and evicts the session, so a dead chain
// cannot occupy a slot and blackhole its ID.
func (s *Session) work(cs *chainState, tracked bool) {
	if tracked {
		defer s.eng.workers.Done()
	}
	err := runStages(cs.live, cs.in, cs.stop, false, stripSessionID)
	close(cs.exited)
	if err != nil && !cs.retired.Load() {
		s.shard.counters.chainErrors.Add(1)
		s.eng.evict(s, err)
	}
}

// stripSessionID readies an inbound datagram for the trunk's stages: the
// frame stays in its buffer, and the session-ID prefix becomes headroom the
// send path stamps again.
func stripSessionID(b *packet.Buf) *packet.Buf {
	b.B = b.B[packet.SessionIDSize:]
	return b
}

// runStages is the worker loop shared by session trunks and delivery
// cohorts: it selects on the inbound queue, on one timer (armed only while a
// stage in the running slice ticks) and on stop, and runs each event through
// live inline. On stop it first drains what is still queued when drain is
// set, then flushes the stages in order. prep readies each dequeued buffer
// for the stages.
func runStages(live *compose.Live, in chan *packet.Buf, stop <-chan struct{}, drain bool, prep func(*packet.Buf) *packet.Buf) error {
	var timer *time.Timer     // made when a stage first ticks: most slices never do
	var tick <-chan time.Time // timer.C while armed
	for {
		var err error
		select {
		case b := <-in:
			err = live.Process(prep(b))
		case now := <-tick:
			tick = nil
			err = live.Tick(now)
		case <-stop:
			for drain {
				select {
				case b := <-in:
					if err := live.Process(prep(b)); err != nil {
						return err
					}
				default:
					drain = false
				}
			}
			return live.Flush()
		}
		if err != nil {
			return err
		}
		if period := live.TickPeriod(); period > 0 && tick == nil {
			if timer == nil {
				timer = time.NewTimer(period)
			} else {
				timer.Reset(period)
			}
			tick = timer.C
		} else if period == 0 && tick != nil {
			timer.Stop()
			tick = nil
		}
	}
}

// ID returns the session's wire identifier.
func (s *Session) ID() uint32 { return s.id }

// state returns the session's current chain-bound state, nil while parked.
func (s *Session) state() *chainState { return s.cs.Load() }

// Live exposes the session's composed trunk so the control plane (and tests)
// can observe and recompose it while traffic flows. nil while parked; the
// engine's control operations go through trunkOp, which unparks first.
func (s *Session) Live() *compose.Live {
	if cs := s.cs.Load(); cs != nil {
		return cs.live
	}
	return nil
}

// Parked reports whether the session is currently parked.
func (s *Session) Parked() bool { return s.parked.Load() }

// composeEnv is the build environment trunk plan stages are instantiated
// with.
func (s *Session) composeEnv() compose.Env {
	return compose.Env{
		StreamID:  s.id,
		Name:      func(kind string) string { return fmt.Sprintf("%s:%d", kind, s.id) },
		OnRepairs: s.addRepairHook,
	}
}

// addRepairHook registers one decoder stage's reconstruction counter. Hooks
// accumulate across recompositions so Stats stays monotonic; the slice only
// grows on control-path chain builds.
func (s *Session) addRepairHook(fn func() uint64) {
	s.repairsMu.Lock()
	s.repairs = append(s.repairs, fn)
	s.repairsMu.Unlock()
}

// Counters returns the session's counter block.
func (s *Session) Counters() *metrics.SessionCounters { return &s.counters }

// AdaptRetunes returns how many retune decisions the session's adaptation
// plane has applied across all of its loops (encoder splices on unicast
// trunks, cohort moves on fan-out members). Zero when the plane is off or the
// session is parked. Cheap enough for benchmarks and tests to poll, unlike a
// full Stats snapshot.
func (s *Session) AdaptRetunes() uint64 {
	if cs := s.cs.Load(); cs != nil && cs.adaptor != nil {
		return cs.adaptor.retuned.Load()
	}
	return 0
}

// activitySum folds every signal that counts as session activity into one
// number the maintenance tick can compare against its last mark: inbound
// packets (delivered or queue-dropped — a flooding sender is not idle) and
// control-plane touches.
func (s *Session) activitySum() uint64 {
	return s.counters.Packets.Load() + s.counters.Drops.Load() + s.ctlActivity.Load()
}

// Stats snapshots the session's counters, folding in FEC repair counts from
// any decoder stages and the adaptation loop's state when the plane is on.
// On a parked session the chain columns come from the retained plan and the
// adaptation snapshot taken at park time.
func (s *Session) Stats() metrics.SessionStats {
	st := s.counters.Snapshot(s.id)
	st.Shard = s.shard.idx
	s.repairsMu.Lock()
	hooks := append([]func() uint64(nil), s.repairs...)
	s.repairsMu.Unlock()
	for _, fn := range hooks {
		st.Repairs += fn()
	}
	if cs := s.cs.Load(); cs != nil {
		st.Chain = cs.live.String()
		st.Stages = cs.live.StageStats()
		if cs.adaptor != nil {
			st.Adapt = cs.adaptor.stats()
		}
		if cs.tree != nil {
			st.Receivers = cs.tree.stats()
			st.Cohorts = cs.tree.cohortCount()
		}
	} else {
		st.Parked = s.parked.Load()
		s.parkMu.Lock()
		st.Chain = s.parkedPlan.String()
		st.Adapt = s.parkedAdapt
		s.parkMu.Unlock()
	}
	if s.eng.cfg.IdleTTL > 0 {
		if since := s.idleSince.Load(); since > 0 {
			if ms := (time.Now().UnixNano() - since) / int64(time.Millisecond); ms > 0 {
				st.IdleForMs = ms
			}
		}
	}
	return st
}

// handleFeedback consumes one validated receiver-report frame. The report's
// source address identifies the receiver, so on a fan-out session each
// downstream station steers only its own delivery branch. Reports from
// addresses that are not legitimate receivers of this session are dropped —
// the feedback plane honors the same off-path protections as the data path.
// Reports for a parked session are dropped too: feedback describes a stream
// that is not flowing, and a chatty reporter must not keep an idle session's
// chain alive (nor rebuild it). Called from the engine's read loop, which
// decides the receiver's repair; applying it is the maintenance goroutine's.
func (s *Session) handleFeedback(from netip.AddrPort, frame []byte) {
	cs := s.cs.Load()
	if cs == nil || cs.adaptor == nil {
		return
	}
	// Canonicalize once: authorization and the receiver key both compare
	// unmapped forms (a dual-stack socket may report the same station as
	// 1.2.3.4 or ::ffff:1.2.3.4 depending on how it sent).
	from = multicast.UnmapAddrPort(from)
	if !s.eng.receiverAuthorized(s, from) {
		return
	}
	rep, err := packet.ParseReport(frame)
	if err != nil {
		return
	}
	if cs.tree != nil {
		// Membership may have changed since the last packet: a departed
		// member's branch (and loop) is torn down before routing, so its last
		// report cannot pin anything, and a member that joined silently gets
		// its branch before its first report would be dropped on the floor.
		cs.tree.reconcile()
	}
	cs.adaptor.report(from, rep)
}

// retransmitter is what a NACK is answered from: any stage instance holding a
// bounded retransmission history keyed by sequence number. arq.SenderFilter
// implements it; the lookup is structural so a future stage kind (or a custom
// registry's) can serve NACKs without touching the engine.
type retransmitter interface {
	// Frame returns a copy of the buffered frame for seq in a pooled buffer
	// with session-ID headroom, or nil when evicted or never sent.
	Frame(seq uint64) *packet.Buf
}

// historyFor resolves the retransmission history a NACK against the given
// live composition should be answered from: a static arq stage if the plan
// has one, else whatever the fec-adapt marker currently holds (the adaptation
// plane splices an ARQ history there on high-RTT low-loss links).
func historyFor(live *compose.Live) retransmitter {
	if h, ok := live.Instance(compose.KindARQ).(retransmitter); ok {
		return h
	}
	if h, ok := live.Instance(compose.KindFECAdapt).(retransmitter); ok {
		return h
	}
	return nil
}

// handleNack consumes one validated NACK frame, answering each named sequence
// number out of the session's ARQ retransmission history with a unicast
// retransmission to the requester. NACKs honor the same off-path gate as
// receiver reports; on a fan-out session the requester's own delivery branch
// is consulted first, so a branch whose loop escalated to ARQ serves its
// receiver from its own history. Requests for sequence numbers the bounded
// history no longer holds are silently unanswerable — the receiver's give-up
// accounting owns that loss, and a parked session's history went with its
// chain. Called from the engine's read loop.
func (s *Session) handleNack(from netip.AddrPort, frame []byte) {
	cs := s.cs.Load()
	if cs == nil {
		return
	}
	from = multicast.UnmapAddrPort(from)
	if !s.eng.receiverAuthorized(s, from) {
		return
	}
	var seqbuf [packet.MaxNackSeqs]uint64
	seqs, err := packet.ParseNack(frame, seqbuf[:0])
	if err != nil {
		return
	}
	var rx *metrics.ReceiverCounters
	var h retransmitter
	if cs.tree != nil {
		// Same reconcile-before-routing rule as reports: a silently joined
		// member gets its membership before its first NACK is dropped.
		cs.tree.reconcile()
		var live *compose.Live
		rx, live = cs.tree.memberRepair(from)
		if live != nil {
			h = historyFor(live)
		}
	}
	if h == nil {
		h = historyFor(cs.live)
	}
	if h == nil {
		return
	}
	for _, seq := range seqs {
		b := h.Frame(seq)
		if b == nil {
			continue
		}
		s.shard.enqueue(outbound{s: s, b: stamp(b, s.id), dst: from, rx: rx})
		s.shard.counters.retransmits.Add(1)
	}
}

// Peer returns the address the session currently relays to in echo mode: the
// source of the most recent inbound datagram.
func (s *Session) Peer() netip.AddrPort {
	s.peerMu.RLock()
	defer s.peerMu.RUnlock()
	return s.peer
}

// setPeer records the sender a session echoes to. By default the peer is
// pinned to the session's first sender: letting any datagram that guesses a
// live session ID retarget the output would hand the stream to an off-path
// attacker (or reflect it at a spoofed victim). Deployments with genuinely
// mobile clients opt in with Config.AllowRoaming. The common case (unchanged
// peer) stays on the read lock.
func (s *Session) setPeer(from netip.AddrPort) {
	s.peerMu.RLock()
	same := s.peer == from
	pinned := !s.eng.cfg.AllowRoaming && s.peer.IsValid()
	s.peerMu.RUnlock()
	if same || pinned {
		return
	}
	s.peerMu.Lock()
	if s.eng.cfg.AllowRoaming || !s.peer.IsValid() {
		s.peer = from
	}
	s.peerMu.Unlock()
}

// deliver hands one inbound datagram (session ID still prefixed) to the
// session, dropping rather than blocking when the queue is full so one slow
// session cannot stall the engine's shared read loop. A datagram for a
// session with no incarnation — fresh or parked — takes the build path
// (deliverBuild); the live path is one atomic load, the enqueue, and one
// confirming load. The confirming load closes the park race: if park retired
// the queue between our load and the enqueue, the datagram could sit in a
// channel nothing reads, so we reclaim it from the retired queue — after
// park's own drain, so it keeps its place behind the datagrams the drain
// re-delivered — and deliver it through the fresh state. deliver takes
// ownership of b.
func (s *Session) deliver(b *packet.Buf, from netip.AddrPort) {
	s.setPeer(from)
	n := uint64(len(b.B)) // read before the send: the worker owns b afterwards
	for {
		cs := s.cs.Load()
		if cs == nil {
			if s.deliverBuild(b, n) {
				return
			}
			continue // built meanwhile: queue behind the datagram that built it
		}
		select {
		case cs.in <- b:
		default:
			s.counters.Drops.Add(1)
			b.Release()
			return
		}
		if s.cs.Load() == cs {
			s.counters.Packets.Add(1)
			s.counters.Bytes.Add(n)
			return
		}
		// Park retired cs under us. Its drain runs under parkMu, so once we
		// hold it, whatever is left in the retired queue arrived after the
		// drain and goes around behind everything the drain re-delivered.
		s.parkMu.Lock()
		select {
		case b = <-cs.in:
			s.parkMu.Unlock()
		default:
			// Park's drain (or the old worker, before it stopped) took
			// ownership of our datagram; either way it is not lost.
			s.parkMu.Unlock()
			s.counters.Packets.Add(1)
			s.counters.Bytes.Add(n)
			return
		}
	}
}

// deliverBuild is deliver's path for a session with no incarnation: under
// parkMu it builds one, queues b, and only then publishes the incarnation. A
// reader that loads it afterwards queues behind b, and one that found the
// session unbuilt waits on parkMu, finds it built and goes back to the live
// path, behind b too — so a session's first datagrams keep their order across
// readers. It reports false, leaving b to the caller, when another reader
// built the incarnation first. A fresh session whose first build fails is
// evicted.
func (s *Session) deliverBuild(b *packet.Buf, n uint64) bool {
	s.parkMu.Lock()
	if s.cs.Load() != nil {
		s.parkMu.Unlock()
		return false
	}
	err := errSessionClosed
	fresh := !s.parked.Load()
	if !s.isClosed() {
		_, err = s.unparkLocked(b)
	}
	s.parkMu.Unlock()
	if err != nil {
		s.counters.Drops.Add(1)
		b.Release()
		if fresh && err != errSessionClosed {
			s.eng.evict(s, err)
		}
		return true
	}
	s.counters.Packets.Add(1)
	s.counters.Bytes.Add(n)
	return true
}

// isClosed reports whether close has begun.
func (s *Session) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stamp prefixes the session ID to an output frame: in the headroom in front
// of the frame when it has some (a frame that passed through every stage
// still sits where its datagram arrived, and stages build new frames with
// packet.GetFrameBuf), else in a fresh buffer.
func stamp(b *packet.Buf, id uint32) *packet.Buf {
	if !b.Prepend(packet.SessionIDSize) {
		nb := packet.GetBuf(packet.SessionIDSize + len(b.B))
		copy(nb.B[packet.SessionIDSize:], b.B)
		b.Release()
		b = nb
	}
	packet.PutSessionID(b.B, id)
	return b
}

// send relays one trunk-output frame, on the worker. The session ID is
// stamped once; on the delivery-tree path the frame is then teed into every
// delivery cohort by reference, otherwise the whole buffer is one datagram
// for the owning shard's batched writer. Routing every datagram of a session
// through one shard writer preserves per-session output order; a full writer
// queue drops (UDP-style, counted) rather than blocking the worker. send
// owns b.
func (s *Session) send(cs *chainState, b *packet.Buf) {
	b = stamp(b, s.id)
	if cs.tree != nil {
		cs.tree.dispatch(b)
		return
	}
	if s.eng.group != nil {
		// Fan-out: the writer snapshots the receiver group at flush time so
		// membership changes apply to queued datagrams too.
		s.shard.enqueue(outbound{s: s, b: b, fan: true})
		return
	}
	dst := s.eng.forward
	if !dst.IsValid() {
		dst = s.Peer()
	}
	if !dst.IsValid() {
		s.counters.Drops.Add(1)
		b.Release()
		return
	}
	s.shard.enqueue(outbound{s: s, b: b, dst: dst})
}

// stopLocked retires an incarnation and stops its worker, which flushes the
// stages' held frames through send on its way out, then tears the delivery
// tree down behind it. Queued datagrams stay in cs.in for the caller. Caller
// holds parkMu.
func (s *Session) stopLocked(cs *chainState) {
	if cs.retired.CompareAndSwap(false, true) {
		close(cs.stop)
	}
	<-cs.exited
	if cs.tree != nil {
		cs.tree.close()
	}
}

// close terminates the session: the incarnation is retired (so a queued
// adaptation apply finds it retired and does nothing) and stopped, and
// datagrams still queued are returned to the pool and counted in the shard's
// close-drop bucket, since the session's own counters leave with it. A
// parked session closes by just releasing its slot in the parked gauge —
// there is nothing else left to stop.
func (s *Session) close() {
	s.closeOnce.Do(func() {
		s.parkMu.Lock()
		defer s.parkMu.Unlock()
		close(s.done)
		if cs := s.cs.Load(); cs != nil {
			s.stopLocked(cs)
		drain:
			for {
				select {
				case b := <-cs.in:
					s.shard.counters.closeDrops.Add(1)
					b.Release()
				default:
					break drain
				}
			}
		}
		if s.parked.CompareAndSwap(true, false) {
			s.shard.counters.parkedNow.Add(-1)
		}
	})
}
