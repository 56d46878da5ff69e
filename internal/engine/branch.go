package engine

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/cache"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// A fan-out session's data plane is a delivery tree: the shared trunk (the
// session's ordinary filter chain) terminates in a tee whose taps are delivery
// *cohorts* — one shared tail per distinct protection level, not one per
// receiver. Receivers whose tail plans canonicalize identically and whose
// adaptation loops decided the same repair mechanism (same (n,k) FEC code,
// same ARQ history, or none) are members of the same cohort: the trunk frame
// is teed once into the cohort's chain, traverses it once, is FEC-encoded
// once, and the cohort's output fans to every member destination through the
// owning shard's batched writer — same payload, N address stamps, no payload
// copies. Receivers whose effective tail is empty (every stage a dormant
// marker, no repair engaged) share the bypass cohort: trunk output goes
// straight into the shard writer's batch with no chain, no goroutines and no
// channel hop at all. Heterogeneity costs exactly as many chains as there are
// distinct protection levels — the paper's per-station adaptation at the
// price of per-level encoding.

// member is one fan-out receiver: its address, its tail plan, its exact
// per-receiver counters, and its adaptation loop state. The chain serving it
// is its cohort's, shared with every receiver at the same protection level;
// a retune (or a per-receiver recompose) moves the member between cohorts
// instead of rewriting a private chain.
type member struct {
	ap   netip.AddrPort
	plan compose.Plan // this member's tail plan (guarded by tree.mu)

	counters metrics.ReceiverCounters

	// cohort is the cohort currently serving this member (guarded by
	// tree.mu); nil only when cohort construction failed.
	cohort *cohort
	// gate fences this member into its current cohort: the shard writer
	// starts stamping the cohort's output to it only from the gate's sealed
	// sequence onward, so frames that were already inside the cohort (queued
	// or mid-chain) at join time — which the member's previous cohort still
	// owes it through a fade — are never double-delivered. nil once the gate
	// is spent. Guarded by tree.mu; the fence value itself is atomic.
	gate *startGate
	// loop is the member's adaptation loop; nil without the per-receiver
	// feedback plane.
	loop *receiverLoop
}

// Handover fences. A migrating member leaves a fade behind in its old cohort
// (deliver everything up to the cut) and carries a gate into its new one
// (deliver everything from the cut). Both start unsealed — "the cut has not
// reached this point of the frame stream yet" — and are sealed to an exact
// outbound sequence number by the cohort itself: the bypass lane seals on its
// next deliver (which is by construction the first post-cut frame, thanks to
// the tee's swap barrier), a chain cohort seals when an in-band seal marker
// enqueued at the cut emerges from its chain, positioned after every pre-cut
// frame and before every post-cut one.
const (
	// fenceUnsealed marks a fade or gate whose cut has not been located in
	// the cohort's outbound sequence space yet: fades deliver everything,
	// gates nothing, until the seal lands.
	fenceUnsealed = int64(1) << 62
	// fenceCanceled retires a fade whose receiver left the group entirely.
	fenceCanceled = -(int64(1) << 62)
	// sealStream/sealGroup tag seal-marker control frames so the cohort's
	// send can recognize its own markers. A client deliberately crafting a
	// KindControl frame with both values could seal a fence early; the blast
	// radius is a few misrouted frames for a receiver that is mid-migration
	// at that instant, never a crash or a stall.
	sealStream = ^uint32(0)
	sealGroup  = 0x5EA11D
)

// startGate fences a member into a cohort: at seals the first outbound
// sequence number the member receives. seal orders the gate against the
// cohort's seal markers so an earlier marker never closes a later cut.
type startGate struct {
	seal uint64
	at   atomic.Int64
}

// cohortTarget is one destination of a cohort's fan-out, denormalized for the
// shard writer's hot path: the address to stamp, the counters to credit, and
// the join gate to honor (nil for settled members).
type cohortTarget struct {
	dst  netip.AddrPort
	rx   *metrics.ReceiverCounters
	gate *startGate
}

// fadeTarget keeps a receiver that just migrated to another cohort on its old
// cohort's fan-out list for the frames that were already in flight at the
// migration point, so nothing queued through the old chain or the shard
// writer is lost — and nothing newer is duplicated. expiresAt is a fence in
// the cohort's outbound sequence space (see cohort.enqueued/consumed): the
// writer includes the fade exactly for frames whose sequence precedes it.
type fadeTarget struct {
	dst       netip.AddrPort
	rx        *metrics.ReceiverCounters
	seal      uint64
	expiresAt atomic.Int64
}

// cohortView is the atomic snapshot the shard writer expands a cohort
// outbound against: current member destinations plus any still-fading
// migrated members. Rebuilt on the control path (membership mutation under
// tree.mu), loaded wait-free per flushed frame.
type cohortView struct {
	targets []cohortTarget
	fades   []*fadeTarget
}

// cohort is one shared delivery tail: either a stage slice run by the
// cohort's worker (with the protection level's repair stage activated at the
// fec-adapt marker) whose output fans to every member, or — for the empty
// effective tail — the bypass lane, which has no stages at all and forwards
// teed trunk frames directly into the shard writer's batch.
type cohort struct {
	key    string
	serial uint64
	tree   *deliveryTree
	bypass bool

	// Chain-cohort machinery; all nil for the bypass cohort. One worker runs
	// the queued frames through live; done stops it, exited reports it gone.
	live   *compose.Live
	in     chan *packet.Buf
	done   chan struct{}
	exited chan struct{}

	view atomic.Pointer[cohortView]

	// enqueued numbers this cohort's outbound frames as they are handed to
	// the shard writer; consumed counts them as the writer resolves them
	// (flushed or queue-dropped). Their difference is the cohort's in-flight
	// writer load, which is what fade fences are cut against.
	enqueued atomic.Int64
	consumed atomic.Int64

	// members and fades are the membership source of truth (guarded by
	// tree.mu); view is their published snapshot. sealSeq numbers handover
	// cuts (fades and gates) so seal markers match exactly the fences they
	// were enqueued for.
	members []*member
	fades   []*fadeTarget
	sealSeq uint64

	// pendingSeal asks the bypass lane's next deliver — the first post-cut
	// frame, by the tee swap barrier — to seal every unsealed fence at the
	// current enqueue count. Chain cohorts seal via in-band markers instead.
	pendingSeal atomic.Bool

	closed   atomic.Bool
	stopOnce sync.Once
}

// deliveryTree owns a session's members and cohorts and keeps them reconciled
// with the engine's fan-out group. The trunk's send path is one atomic
// version check plus a tee dispatch; membership walks happen only when the
// group, a member's plan, or a member's decided protection level changed.
type deliveryTree struct {
	s *Session
	// cs is the chain incarnation this tree belongs to: member priming reads
	// its live trunk's replay stage and member adaptation loops register with
	// its adaptor. A parked session has no tree; unpark builds a fresh one.
	cs  *chainState
	tee *filter.Tee

	mu        sync.Mutex // guards members, cohorts and all membership state
	members   map[netip.AddrPort]*member
	cohorts   map[string]*cohort
	cohortSeq uint64
	version   atomic.Uint64 // AddrGroup version last reconciled; 0 = never
}

func newDeliveryTree(s *Session, cs *chainState) *deliveryTree {
	return &deliveryTree{
		s:       s,
		cs:      cs,
		tee:     filter.NewTee(),
		members: make(map[netip.AddrPort]*member),
		cohorts: make(map[string]*cohort),
	}
}

// cohortKeyFor is a cohort's identity: the canonical tail plan plus the
// repair mechanism the members' adaptation loops decided. Two receivers with
// equal keys are interchangeable consumers of one encoded stream.
func cohortKeyFor(plan compose.Plan, mech adapt.Mechanism, params fec.Params) string {
	switch mech {
	case adapt.MechanismFEC:
		return plan.Key() + "\x02fec:" + params.String()
	case adapt.MechanismARQ:
		return plan.Key() + "\x02arq"
	}
	return plan.Key()
}

// allMarkers reports whether every stage of a plan is a marker — a plan whose
// chain interior would be empty, making its clean-link cohort eligible for
// the bypass lane.
func (e *Engine) allMarkers(plan compose.Plan) bool {
	for _, st := range plan.Stages {
		d, ok := e.reg.Lookup(st.Kind)
		if !ok || !d.Marker {
			return false
		}
	}
	return true
}

// dispatch fans one stamped trunk datagram out to every cohort, reconciling
// membership first if the fan-out group changed. The whole buffer is one
// ready-to-send datagram for the bypass lane. dispatch consumes the caller's
// buffer reference. Called from the session worker only.
func (t *deliveryTree) dispatch(b *packet.Buf) {
	t.reconcile()
	if t.tee.Dispatch(b) == 0 {
		t.s.counters.Drops.Add(1)
	}
}

// reconcile aligns the member set with the fan-out group's membership:
// departed members leave their cohorts (their adaptation loops with them),
// new members are placed into the cohort their tail plan and initial policy
// decision select, and the tee's tap list is republished. Runs on the session
// worker (dispatch) and on the read loop's feedback and NACK paths,
// serialized by t.mu; an unchanged group version returns before the lock, so
// those callers do not wait behind an adaptation apply holding it.
func (t *deliveryTree) reconcile() {
	if t.s.eng.group.Version() == t.version.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	members, v := t.s.eng.group.SnapshotVersion()
	if v == t.version.Load() {
		return
	}
	want := make(map[netip.AddrPort]bool, len(members))
	for _, ap := range members {
		want[ap] = true
	}
	for ap, m := range t.members {
		if !want[ap] {
			t.removeMemberLocked(m)
		}
	}
	for _, ap := range members {
		if t.members[ap] == nil {
			t.addMemberLocked(ap)
		}
	}
	t.publishTapsLocked()
	t.pruneLocked()
	t.version.Store(v)
}

// addMemberLocked admits one new fan-out member: it is placed into the cohort
// selected by the engine's branch plan and the policy's clean-link decision
// (so always-on protection ladders get their encoder cohort from the first
// frame), its adaptation loop starts from that decision, and its delivery is
// primed from the trunk's replay history. Caller holds t.mu.
func (t *deliveryTree) addMemberLocked(ap netip.AddrPort) {
	e := t.s.eng
	m := &member{ap: ap, plan: e.branchPlan}
	d := decision{params: fec.Params{K: 1, N: 1}}
	if e.adaptOn {
		d = e.cleanDecision()
	}
	effective := effectiveMech(m.plan, d.mech)
	t.members[ap] = m
	if _, err := t.assignLocked(m, effective, d.params); err != nil {
		// The member gets nothing until membership changes again; branch
		// specs are validated at engine construction, so this is a
		// resource-level failure worth surfacing.
		delete(t.members, ap)
		t.s.shard.counters.chainErrors.Add(1)
		e.logf("session %d: member %s: %v", t.s.id, ap, err)
		return
	}
	if e.adaptOn {
		m.loop = t.cs.adaptor.addLoop(ap, m, d, effective != adapt.MechanismNone)
	}
	t.primeLocked(m)
}

// removeMemberLocked evicts a departed member: its loop is forgotten and it
// leaves its cohort with no fade (frames in flight to a receiver that left
// the group are simply not sent). Caller holds t.mu.
func (t *deliveryTree) removeMemberLocked(m *member) {
	if m.loop != nil {
		t.cs.adaptor.removeLoop(m.ap)
		m.loop = nil
	}
	if m.cohort != nil {
		m.cohort.dropTargetLocked(m)
		m.cohort.cancelFadeLocked(m.ap)
		m.cohort.publishLocked()
		m.cohort = nil
	}
	delete(t.members, m.ap)
}

// assignLocked moves a member into the cohort identified by its plan and the
// given effective mechanism, creating the cohort on demand. The handover is
// exact: the new tap set, the member's fade out of its old cohort and its
// gate into the new one are all cut inside the tee's swap barrier, so every
// trunk frame lands on exactly one side of the cut in both cohorts' outbound
// sequence spaces — no frame is lost in flight and none is delivered twice,
// even when the member rejoins a cohort it is still fading out of (the fade's
// fence and the fresh gate's are disjoint by construction). The fences are
// published before their seals are requested: a fast cohort chain can emit
// the seal marker the moment it is enqueued, and sealing reads only the
// published view. It reports whether the member actually moved. Caller holds
// t.mu.
func (t *deliveryTree) assignLocked(m *member, mech adapt.Mechanism, params fec.Params) (bool, error) {
	key := cohortKeyFor(m.plan, mech, params)
	if m.cohort != nil && m.cohort.key == key {
		return false, nil
	}
	c := t.cohorts[key]
	if c == nil {
		fresh, err := t.newCohortLocked(key, m.plan, mech, params)
		if err != nil {
			return false, err
		}
		c = fresh
		t.cohorts[key] = c
	}
	old := m.cohort
	c.members = append(c.members, m)
	m.cohort = c
	if old != nil {
		old.dropTargetLocked(m)
	}
	t.tee.Swap(t.tapsLocked(), func() {
		if old != nil {
			old.addFadeLocked(m)
			old.publishLocked()
		}
		c.armGateLocked(m)
		c.publishLocked()
		if old != nil {
			old.requestSealLocked()
		}
		c.requestSealLocked()
	})
	t.pruneLocked()
	return true, nil
}

// retune applies a member loop's decision: the member moves to the cohort
// the decided mechanism selects, and a move counts as the loop's retune. A
// plan without a fec-adapt marker forces the effective mechanism to none —
// the operator recomposed repair away, so the loop goes dormant until a
// recompose restores the marker (the decision is still recorded for stats).
// Runs on the maintenance goroutine.
func (t *deliveryTree) retune(l *receiverLoop, d decision) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := l.m
	if t.members[m.ap] != m {
		return nil // departed while the loop was queued
	}
	effective := effectiveMech(m.plan, d.mech)
	moved, err := t.assignLocked(m, effective, d.params)
	if err != nil {
		return err
	}
	l.record(d, moved, effective != adapt.MechanismNone)
	return nil
}

// rewriteMemberPlan applies a control-plane plan rewrite to one member's tail
// and reassigns its cohort: per-receiver recompose is a membership move, not
// chain surgery. op maps the member's current plan to the target plan; the
// result is validated against the branch dialect. Returns the canonical plan
// string after the rewrite.
func (t *deliveryTree) rewriteMemberPlan(ap netip.AddrPort, op func(compose.Plan) (compose.Plan, error)) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[ap]
	if m == nil {
		return "", fmt.Errorf("engine: session %d has no branch for receiver %s", t.s.id, ap)
	}
	plan, err := op(m.plan)
	if err != nil {
		return "", err
	}
	if err := t.s.eng.reg.Validate(plan, compose.ModeBranch); err != nil {
		return "", err
	}
	m.plan = plan
	d := decision{params: fec.Params{K: 1, N: 1}}
	if m.loop != nil {
		d = m.loop.applied()
	}
	effective := effectiveMech(plan, d.mech)
	if _, err := t.assignLocked(m, effective, d.params); err != nil {
		return "", err
	}
	if m.loop != nil {
		m.loop.record(d, false, effective != adapt.MechanismNone)
	}
	return plan.String(), nil
}

// newCohortLocked builds the shared tail for one protection level. The
// clean-link cohort of an all-marker plan is the bypass lane (no chain); any
// other key gets a chain with the plan's stages and — for FEC or ARQ — the
// level's repair stage activated at the fec-adapt marker. Cohort chains use
// a *fixed* FEC code: a level change is a membership move to another cohort,
// never an in-place retune, so one encode always serves every member.
// Caller holds t.mu.
func (t *deliveryTree) newCohortLocked(key string, plan compose.Plan, mech adapt.Mechanism, params fec.Params) (*cohort, error) {
	s := t.s
	e := s.eng
	c := &cohort{key: key, serial: t.cohortSeq, tree: t}
	t.cohortSeq++
	c.view.Store(&cohortView{})
	if mech == adapt.MechanismNone && e.allMarkers(plan) {
		c.bypass = true
		return c, nil
	}
	env := compose.Env{
		StreamID: s.id,
		Name:     func(kind string) string { return fmt.Sprintf("%s:%d:c%d", kind, s.id, c.serial) },
	}
	live, err := compose.New(e.reg, env, compose.ModeBranch, plan, c.send)
	if err != nil {
		return nil, fmt.Errorf("cohort tail: %w", err)
	}
	switch mech {
	case adapt.MechanismFEC:
		enc, err := fecproxy.NewEncoderFilter(fmt.Sprintf("fec:%d:c%d", s.id, c.serial), params, s.id)
		if err == nil {
			err = live.Activate(compose.KindFECAdapt, enc)
		}
		if err != nil {
			return nil, fmt.Errorf("cohort fec: %w", err)
		}
	case adapt.MechanismARQ:
		if err := live.Activate(compose.KindFECAdapt, arq.NewSenderFilter(fmt.Sprintf("arq:%d:c%d", s.id, c.serial), 0)); err != nil {
			return nil, fmt.Errorf("cohort arq: %w", err)
		}
	}
	c.live = live
	c.in = make(chan *packet.Buf, e.cfg.QueueDepth)
	c.done = make(chan struct{})
	c.exited = make(chan struct{})
	go c.work()
	return c, nil
}

// work is the cohort's worker. A cohort whose stages fail stops consuming;
// its deliveries then count as drops rather than stalling the trunk.
func (c *cohort) work() {
	defer close(c.exited)
	if err := runStages(c.live, c.in, c.done, true, ownFrame); err != nil {
		c.closed.Store(true)
		s := c.tree.s
		s.shard.counters.chainErrors.Add(1)
		s.eng.logf("session %d: cohort %d: chain failed: %v", s.id, c.serial, err)
	}
}

// ownFrame gives a cohort's stages a frame of their own: teed trunk
// datagrams are shared with sibling cohorts (read-only, behind the trunk's
// session-ID stamp), and stages may rewrite frames in place, so the frame is
// copied into a fresh buffer with headroom for the cohort's stamp.
func ownFrame(b *packet.Buf) *packet.Buf {
	nb := packet.GetFrameBuf(len(b.B) - packet.SessionIDSize)
	copy(nb.B, b.B[packet.SessionIDSize:])
	b.Release()
	return nb
}

// tapsLocked builds the tee's tap list: one tap per cohort with at least one
// real member. A cohort whose last member migrated away loses its tap, so no
// new frames enter it while its in-flight frames drain to fade targets.
// Caller holds t.mu.
func (t *deliveryTree) tapsLocked() []filter.BufSink {
	taps := make([]filter.BufSink, 0, len(t.cohorts))
	for _, c := range t.cohorts {
		if len(c.members) > 0 {
			taps = append(taps, c.deliver)
		}
	}
	return taps
}

// publishTapsLocked republishes the tap list without a fence cut — the path
// for membership changes that need no handover fences (group departures,
// teardown). Caller holds t.mu.
func (t *deliveryTree) publishTapsLocked() {
	t.tee.SetTaps(t.tapsLocked())
}

// pruneLocked collapses cohorts that no longer serve anyone: no members, and
// either no live fades or nothing left to drain into them. Stopping a chain
// cohort runs and flushes whatever it still holds, so fade targets receive
// it on the way down; its published view outlives the cohort for outbounds
// still queued on the shard writer. Caller holds t.mu.
func (t *deliveryTree) pruneLocked() {
	for key, c := range t.cohorts {
		if len(c.members) > 0 {
			continue
		}
		if c.in != nil && len(c.in) > 0 {
			continue // teed frames not yet consumed; drain before collapsing
		}
		c.stop()
		delete(t.cohorts, key)
	}
}

// prime replays the trunk's retained history directly to a freshly admitted
// member, oldest first, so a station joining a fan-out session mid-stream
// starts with recent context instead of a cold gap. The frames were recorded
// by a replay stage in the trunk plan (no stage, no priming). Priming
// bypasses the member's cohort chain — the history is delivered as recorded,
// without re-encoding, which keeps a late join from perturbing the cohort's
// FEC group state — and enqueues straight onto the shard writer, one pooled
// copy per frame and nothing else. Caller holds t.mu.
func (t *deliveryTree) primeLocked(m *member) {
	rf, ok := t.cs.live.Instance(compose.KindReplay).(*cache.ReplayFilter)
	if !ok {
		return
	}
	s := t.s
	rf.VisitFrames(func(frame []byte) {
		b := packet.GetBuf(packet.SessionIDSize + len(frame))
		packet.PutSessionID(b.B, s.id)
		copy(b.B[packet.SessionIDSize:], frame)
		m.counters.Primed.Add(1)
		s.shard.enqueue(outbound{s: s, b: b, dst: m.ap, rx: &m.counters})
	})
}

// memberRepair resolves the counters and (for chain cohorts) the live
// composition a NACK from the given receiver should be answered against.
func (t *deliveryTree) memberRepair(ap netip.AddrPort) (*metrics.ReceiverCounters, *compose.Live) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[ap]
	if m == nil {
		return nil, nil
	}
	if m.cohort != nil && m.cohort.live != nil {
		return &m.counters, m.cohort.live
	}
	return &m.counters, nil
}

// cohortCount returns the number of cohorts currently serving members (fading
// drain cohorts excluded).
func (t *deliveryTree) cohortCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.cohorts {
		if len(c.members) > 0 {
			n++
		}
	}
	return n
}

// close tears the tree down. The trunk chain must already be stopped so no
// dispatch is in flight.
func (t *deliveryTree) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tee.SetTaps(nil)
	for ap, m := range t.members {
		if m.loop != nil {
			t.cs.adaptor.removeLoop(ap)
		}
		delete(t.members, ap)
	}
	for key, c := range t.cohorts {
		c.stop()
		delete(t.cohorts, key)
	}
}

// stats snapshots every member, ordered by receiver address for deterministic
// control-plane output. Counters are exact per receiver even though delivery
// is shared: the shard writer credits each fanned datagram to its member's
// counter block.
func (t *deliveryTree) stats() []metrics.ReceiverStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]metrics.ReceiverStats, 0, len(t.members))
	for _, m := range t.members {
		st := m.counters.Snapshot(m.ap.String())
		st.Chain = m.plan.String()
		if m.cohort != nil && m.cohort.live != nil {
			for _, ss := range m.cohort.live.StageStats() {
				if ss.Active {
					st.Stages = append(st.Stages, ss.Name)
				}
			}
		}
		if l := m.loop; l != nil {
			l.mu.Lock()
			l.fillLocked(&st)
			l.mu.Unlock()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Receiver < out[j].Receiver })
	return out
}

// deliver is the cohort's tee tap, consuming one reference to the shared
// trunk buffer. The bypass lane forwards the ready-stamped datagram straight
// into the shard writer's batch — no chain, no goroutines, no channel hop;
// the writer expands it to every member at flush. Chain cohorts enqueue for
// their chain, dropping rather than blocking when the queue is full so one
// slow cohort cannot stall the trunk or its siblings.
func (c *cohort) deliver(b *packet.Buf) {
	s := c.tree.s
	if c.bypass {
		if c.pendingSeal.Load() {
			// This is the first frame past a handover cut (the tee swap
			// barrier guarantees no pre-cut deliver is still in flight):
			// every unsealed fence lands exactly here — fades stop before
			// this frame, gates open with it.
			c.pendingSeal.Store(false)
			fence := c.enqueued.Load()
			c.sealUpTo(^uint64(0), fence, fence)
		}
		s.shard.counters.bypassHits.Add(1)
		c.enqueued.Add(1)
		s.shard.enqueue(outbound{s: s, b: b, grp: c})
		return
	}
	if c.closed.Load() {
		c.dropFrame(b)
		return
	}
	select {
	case c.in <- b:
		// stop() may have flipped closed — and drained the queue — between
		// the check above and the enqueue, stranding this buffer's reference
		// in a channel nothing reads anymore. Re-check and reclaim one
		// queued buffer; if the consumer (or stop's drain) already took
		// ours, whichever buffer we pop needed releasing just the same.
		if c.closed.Load() {
			select {
			case b2 := <-c.in:
				c.dropFrame(b2)
			default:
			}
		}
	default:
		c.dropFrame(b)
	}
}

// dropFrame accounts one lost cohort frame — once for the session, once for
// every member it would have reached — and releases the buffer.
func (c *cohort) dropFrame(b *packet.Buf) {
	v := c.view.Load()
	for i := range v.targets {
		v.targets[i].rx.Drops.Add(1)
	}
	c.tree.s.counters.Drops.Add(1)
	b.Release()
}

// send relays one cohort-output frame to every member through the owning
// shard's batched writer: the session ID is stamped and the writer fans the
// datagram to the cohort's current membership at flush time. A seal marker
// emerging from the stages is consumed here instead: its position locates
// the handover cut it was enqueued for — behind every pre-cut frame, ahead of
// every post-cut one — so the matching fences seal at the exact current
// outbound sequence. Runs on the cohort worker; send owns b.
func (c *cohort) send(b *packet.Buf) {
	if len(b.B) >= packet.HeaderSize &&
		packet.FrameKind(b.B) == packet.KindControl &&
		binary.BigEndian.Uint32(b.B[12:]) == sealStream &&
		binary.BigEndian.Uint32(b.B[16:]) == sealGroup {
		fence := c.enqueued.Load()
		c.sealUpTo(packet.FrameSeq(b.B), fence, fence)
		b.Release()
		return
	}
	s := c.tree.s
	c.enqueued.Add(1)
	s.shard.enqueue(outbound{s: s, b: stamp(b, s.id), grp: c})
}

// dropTargetLocked removes a member from the cohort's fan-out list. Caller
// holds tree.mu and republishes the view.
func (c *cohort) dropTargetLocked(m *member) {
	for i, cm := range c.members {
		if cm == m {
			c.members = append(c.members[:i], c.members[i+1:]...)
			return
		}
	}
}

// addFadeLocked keeps a migrated member receiving the cohort's in-flight
// frames: everything up to the cut, nothing newer. The fade starts unsealed
// (deliver everything) and is sealed to the exact outbound sequence of the
// cut by the cohort itself once the caller has published it and requested
// the seal — the bypass lane on its next deliver, a chain cohort when the
// seal marker emerges from its chain behind every pre-cut frame. Caller holds
// tree.mu and runs inside the tee swap barrier.
func (c *cohort) addFadeLocked(m *member) {
	c.sealSeq++
	f := &fadeTarget{dst: m.ap, rx: &m.counters, seal: c.sealSeq}
	f.expiresAt.Store(fenceUnsealed)
	c.fades = append(c.fades, f)
}

// armGateLocked fences a joining member in: the shard writer starts stamping
// this cohort's output to the member only from the seal point onward, so
// frames already inside the cohort at join time (owed to the member by its
// previous cohort's fade, or predating its membership entirely) are never
// delivered to it from here. Like a fade, the gate is sealed once the caller
// has published it and requested the seal. Caller holds tree.mu and runs
// inside the tee swap barrier.
func (c *cohort) armGateLocked(m *member) {
	c.sealSeq++
	m.gate = &startGate{seal: c.sealSeq}
	m.gate.at.Store(fenceUnsealed)
}

// requestSealLocked arranges for the fences cut at the current seal sequence
// to be located in the cohort's outbound frame stream. Caller holds tree.mu
// inside the tee swap barrier, so the cut lies exactly between the frames the
// cohort has already been handed and every frame it will see next, and has
// published the fences: the seal may land before this returns.
func (c *cohort) requestSealLocked() {
	if c.bypass {
		c.pendingSeal.Store(true)
		return
	}
	frame, err := packet.Marshal(&packet.Packet{
		Seq: c.sealSeq, StreamID: sealStream, Kind: packet.KindControl, Group: sealGroup,
	})
	if err != nil {
		c.sealUpTo(c.sealSeq, c.enqueued.Load()+int64(len(c.in)), c.enqueued.Load())
		return
	}
	b := packet.GetBuf(packet.SessionIDSize + len(frame))
	copy(b.B[packet.SessionIDSize:], frame)
	select {
	case c.in <- b:
	default:
		// Queue full: the cohort is shedding load anyway. Resolve the fences
		// with conservative estimates — fades err toward a few duplicates,
		// gates toward opening immediately — rather than leaving them
		// unsealed forever.
		b.Release()
		c.sealUpTo(c.sealSeq, c.enqueued.Load()+int64(len(c.in)), c.enqueued.Load())
	}
}

// sealUpTo locates every fence cut at or before markerSeq: unsealed fades
// expire at fadeFence, unsealed gates open at gateFence. Fences cut after the
// marker keep waiting for their own seal. Runs on the sealing path — the
// bypass lane's deliver or a chain cohort's send — against the published
// view; fence values are atomic, so the control path never races it.
func (c *cohort) sealUpTo(markerSeq uint64, fadeFence, gateFence int64) {
	v := c.view.Load()
	for _, f := range v.fades {
		if f.seal <= markerSeq && f.expiresAt.Load() == fenceUnsealed {
			f.expiresAt.Store(fadeFence)
		}
	}
	for i := range v.targets {
		if g := v.targets[i].gate; g != nil && g.seal <= markerSeq && g.at.Load() == fenceUnsealed {
			g.at.Store(gateFence)
		}
	}
}

// cancelFadeLocked drops any fade entry for the given receiver — it left the
// fan-out group entirely, so nothing is owed to it anymore. Caller holds
// tree.mu and republishes the view.
func (c *cohort) cancelFadeLocked(ap netip.AddrPort) {
	kept := c.fades[:0]
	for _, f := range c.fades {
		if f.dst == ap {
			f.expiresAt.Store(fenceCanceled)
			continue
		}
		kept = append(kept, f)
	}
	c.fades = kept
}

// publishLocked rebuilds the cohort's atomic fan-out view from its membership
// and live fades, dropping expired fades and spent join gates on the way.
// Caller holds tree.mu.
func (c *cohort) publishLocked() {
	v := &cohortView{}
	if n := len(c.members); n > 0 {
		v.targets = make([]cohortTarget, n)
		for i, m := range c.members {
			if g := m.gate; g != nil {
				if at := g.at.Load(); at != fenceUnsealed && at <= c.consumed.Load() {
					m.gate = nil // every frame from here on clears the gate
				}
			}
			v.targets[i] = cohortTarget{dst: m.ap, rx: &m.counters, gate: m.gate}
		}
	}
	kept := c.fades[:0]
	for _, f := range c.fades {
		if f.expiresAt.Load() > c.consumed.Load() {
			kept = append(kept, f)
			v.fades = append(v.fades, f)
		}
	}
	c.fades = kept
	c.view.Store(v)
}

// stop tears a chain cohort down gracefully: the worker runs what is still
// queued, flushes what its stages hold — fade targets receive it on the way
// down — and exits. The bypass cohort has nothing to stop; its published view
// keeps serving writer-queued outbounds until they flush.
func (c *cohort) stop() {
	c.stopOnce.Do(func() {
		if c.live == nil {
			c.closed.Store(true)
			return
		}
		close(c.done)
		// A worker whose stages failed has exited already and the queue may
		// still hold frames nothing will run; the drain below reclaims them.
		<-c.exited
		c.closed.Store(true)
		for {
			select {
			case b := <-c.in:
				b.Release()
			default:
				return
			}
		}
	})
}
