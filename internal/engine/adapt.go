package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// The adaptation plane is the paper's observer → responder loop, run once per
// downstream receiver and owning no goroutine. A receiverLoop observes its
// one receiver: the shard read loop that parses the receiver's report decides
// the repair (mechanism, code) with adapt.Policy.Decide on the spot. When the
// decision changes — a report crossed a rung, or the maintenance tick aged a
// stale report back to the clean-link decision — the loop queues itself for
// the engine's maintenance goroutine, which applies the newest decision to
// the chain serving that receiver: the session trunk on unicast sessions (the
// fec-adapt marker is reconciled in place), the receiver's delivery cohort on
// fan-out sessions (a membership move). A loop sits in the queue at most once,
// so nothing is dropped and only the newest decision is applied; applies stay
// off the readers because they build stages (FEC coders, cohort slices).

// decision is one repair choice for one receiver: the mechanism and code the
// policy decided, and the loss it decided them from.
type decision struct {
	mech   adapt.Mechanism
	params fec.Params
	loss   float64
}

// cleanDecision is the policy's choice for a receiver with no live report:
// the pure relay on ordinary ladders, the lowest rung on always-on ones.
func (e *Engine) cleanDecision() decision {
	mech, params := e.policy.Decide(0, 0)
	return decision{mech: mech, params: params}
}

// effectiveMech is the mechanism a plan can actually carry: without a
// fec-adapt marker (an operator recomposed it away) the loop is dormant and
// nothing is spliced, whatever the policy decided.
func effectiveMech(plan compose.Plan, mech adapt.Mechanism) adapt.Mechanism {
	if !plan.Has(compose.KindFECAdapt) {
		return adapt.MechanismNone
	}
	return mech
}

// sessionAdaptor holds the receiver loops of one chain incarnation: the trunk
// loop of a unicast session (under the zero key), or one loop per fan-out
// member keyed by the member's address.
type sessionAdaptor struct {
	s  *Session
	cs *chainState

	// retuned counts every retune any loop of the incarnation applied,
	// including loops since removed; Session.AdaptRetunes polls it with one
	// atomic load.
	retuned atomic.Uint64

	mu    sync.Mutex
	loops map[netip.AddrPort]*receiverLoop
}

// receiverLoop is one receiver's adaptation state. The read loop writes the
// report side and the decision it made; the apply writes the applied side.
type receiverLoop struct {
	a *sessionAdaptor
	m *member // the fan-out member served; nil for the trunk loop

	mu      sync.Mutex
	reports uint64
	last    packet.Report // the report with the highest acknowledged sequence
	seen    int64         // unix nanos of the last live report; 0 when none or aged out
	expired uint64
	want    decision // newest decision, made on the read loop
	queued  bool     // waiting for the maintenance goroutine

	have    decision // last applied decision
	active  bool     // a repair stage protects the receiver
	retunes uint64
}

// newSessionAdaptor builds the adaptation state of one chain incarnation. A
// unicast trunk gets its loop at once, primed synchronously with the
// clean-link decision so a policy whose cleanest rung already demands FEC has
// its encoder spliced before the chain carries a packet (the session is not
// registered yet, so nothing can race the prime). Fan-out member loops come
// and go with the delivery tree's members.
func newSessionAdaptor(s *Session, cs *chainState) (*sessionAdaptor, error) {
	a := &sessionAdaptor{s: s, cs: cs, loops: make(map[netip.AddrPort]*receiverLoop)}
	if !s.eng.branching {
		clean := s.eng.cleanDecision()
		if err := a.addLoop(netip.AddrPort{}, nil, clean, false).applyTrunk(clean); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// addLoop registers the loop for one receiver, starting from an applied
// decision.
func (a *sessionAdaptor) addLoop(key netip.AddrPort, m *member, d decision, active bool) *receiverLoop {
	l := &receiverLoop{a: a, m: m, want: d, have: d, active: active}
	a.mu.Lock()
	a.loops[key] = l
	a.mu.Unlock()
	return l
}

// removeLoop forgets a departed member's loop; its queued apply, if any,
// finds the member gone and does nothing.
func (a *sessionAdaptor) removeLoop(key netip.AddrPort) {
	a.mu.Lock()
	delete(a.loops, key)
	a.mu.Unlock()
}

// report feeds one receiver report to the reporter's own loop — keyed by the
// report's (canonicalized) source address on fan-out sessions, the trunk loop
// otherwise — and decides its repair. Runs on the shard read loop; it never
// waits for an apply.
func (a *sessionAdaptor) report(from netip.AddrPort, rep packet.Report) {
	key := netip.AddrPort{}
	if a.s.eng.branching {
		key = from
	}
	a.mu.Lock()
	l := a.loops[key]
	a.mu.Unlock()
	if l == nil {
		return
	}
	loss := rep.LossFraction()
	mech, params := a.s.eng.policy.Decide(loss, rep.RTTMillis)
	l.mu.Lock()
	l.reports++
	if rep.HighestSeq >= l.last.HighestSeq {
		l.last = rep
	}
	l.seen = time.Now().UnixNano()
	queue := l.decideLocked(decision{mech: mech, params: params, loss: loss})
	l.mu.Unlock()
	if queue {
		a.s.eng.queueApply(l)
	}
}

// expire ages out every loop whose last report predates cutoff (unix nanos):
// a station that stopped reporting without leaving decays to the clean-link
// decision instead of pinning its last protection level. Called from the
// maintenance tick.
func (a *sessionAdaptor) expire(cutoff int64) {
	clean := a.s.eng.cleanDecision()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, l := range a.loops {
		l.mu.Lock()
		queue := false
		if l.seen != 0 && l.seen < cutoff {
			l.seen = 0
			l.expired++
			queue = l.decideLocked(clean)
		}
		l.mu.Unlock()
		if queue {
			a.s.eng.queueApply(l)
		}
	}
}

// requeueTrunk has the trunk loop reconcile its marker again without a new
// decision: after a control-plane rewrite of the trunk, so a recompose that
// restores a fec-adapt marker re-engages the repair the loop decided.
func (a *sessionAdaptor) requeueTrunk() {
	a.mu.Lock()
	l := a.loops[netip.AddrPort{}]
	a.mu.Unlock()
	if l == nil {
		return
	}
	l.mu.Lock()
	queue := l.markQueuedLocked()
	l.mu.Unlock()
	if queue {
		a.s.eng.queueApply(l)
	}
}

// decideLocked records a decision and reports whether the caller must queue
// the loop: the decision changed the mechanism or code, and the loop is not
// already waiting. Caller holds l.mu and queues after releasing it, so the
// woken apply never blocks on the lock.
func (l *receiverLoop) decideLocked(d decision) bool {
	changed := d.mech != l.want.mech || d.params != l.want.params
	l.want = d
	return changed && l.markQueuedLocked()
}

// markQueuedLocked marks the loop queued, reporting false when it already
// was. Caller holds l.mu.
func (l *receiverLoop) markQueuedLocked() bool {
	if l.queued {
		return false
	}
	l.queued = true
	return true
}

// apply carries the loop's newest decision to its chain. Runs on the
// maintenance goroutine, one apply at a time. An apply against a retired
// incarnation (parked or closed) is a no-op: retirement happens under the
// session's parkMu, which the apply holds throughout.
func (l *receiverLoop) apply() {
	l.mu.Lock()
	d := l.want
	l.queued = false
	l.mu.Unlock()
	s, cs := l.a.s, l.a.cs
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	if cs.retired.Load() {
		return
	}
	var err error
	if l.m != nil {
		err = cs.tree.retune(l, d)
	} else {
		err = l.applyTrunk(d)
	}
	if err != nil {
		s.eng.logf("session %d: adapt: %v", s.id, err)
	}
}

// applied returns the loop's last applied decision.
func (l *receiverLoop) applied() decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.have
}

// record notes an applied decision; changed counts one retune.
func (l *receiverLoop) record(d decision, changed, active bool) {
	l.mu.Lock()
	l.have, l.active = d, active
	if changed {
		l.retunes++
	}
	l.mu.Unlock()
	if changed {
		l.a.retuned.Add(1)
	}
}

// applyTrunk reconciles the trunk's fec-adapt marker with a decision, as plan
// operations on the Live. It is driven by what occupies
// the marker, never by comparing decisions, so an always-on policy gets its
// encoder on the prime and a mechanism change swaps the occupant:
//
//   - none: deactivate the marker, back to the pure relay;
//   - FEC with the adaptive encoder running: retune it in place (the new code
//     lands on the next group boundary);
//   - FEC otherwise: swap in a fresh adaptive encoder;
//   - ARQ: swap in a fresh retransmission history (unless one is running),
//     which the engine answers NACKs from.
//
// A plan without the marker leaves the loop dormant: the decision is
// recorded, nothing is spliced, and no retune is counted.
func (l *receiverLoop) applyTrunk(d decision) error {
	s := l.a.s
	live := l.a.cs.live
	var changed bool
	var err error
	switch d.mech {
	case adapt.MechanismNone:
		changed = live.Deactivate(compose.KindFECAdapt)
	case adapt.MechanismARQ:
		if _, ok := live.Instance(compose.KindFECAdapt).(*arq.SenderFilter); !ok {
			changed, err = swapMarker(live, arq.NewSenderFilter(fmt.Sprintf("adapt-arq:%d", s.id), 0))
		}
	case adapt.MechanismFEC:
		if enc, ok := live.Instance(compose.KindFECAdapt).(*fecproxy.AdaptiveEncoderFilter); ok {
			enc.SetLossRate(d.loss)
			changed = d.params != l.applied().params
			break
		}
		enc, encErr := fecproxy.NewAdaptiveEncoderFilter(fmt.Sprintf("adapt-fec:%d", s.id), s.eng.policy, s.id)
		if encErr != nil {
			return encErr
		}
		enc.SetLossRate(d.loss)
		changed, err = swapMarker(live, enc)
	}
	if err != nil {
		return fmt.Errorf("%s repair: %w", d.mech, err)
	}
	l.record(d, changed, live.Instance(compose.KindFECAdapt) != nil)
	return nil
}

// swapMarker replaces whatever occupies the fec-adapt marker with st. A plan
// without the marker is not an error: it reports no change.
func swapMarker(live *compose.Live, st filter.Stage) (bool, error) {
	live.Deactivate(compose.KindFECAdapt)
	err := live.Activate(compose.KindFECAdapt, st)
	if errors.Is(err, compose.ErrNoStage) {
		return false, nil
	}
	return err == nil, err
}

// fillLocked copies the loop's state into a receiver-stats entry. Caller
// holds l.mu.
func (l *receiverLoop) fillLocked(st *metrics.ReceiverStats) {
	st.K, st.N = l.have.params.K, l.have.params.N
	st.Active = l.active
	st.LossRate = l.want.loss
	st.Reports = l.reports
	st.Retunes = l.retunes
	st.HighestSeq = l.last.HighestSeq
	st.Mechanism = l.have.mech.String()
}

// stats aggregates the loops for control-protocol replies. With several
// loops (a fan-out session) the protection columns report the most protected
// receiver — the group's weakest — while reports, receivers, retunes and
// expirations sum across loops; the per-receiver breakdown lives in
// SessionStats.Receivers.
func (a *sessionAdaptor) stats() *metrics.AdaptStats {
	agg := &metrics.AdaptStats{K: 1, N: 1}
	worstN, worstLoss := -1, -1.0
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, l := range a.loops {
		var st metrics.ReceiverStats
		l.mu.Lock()
		l.fillLocked(&st)
		if l.seen != 0 {
			agg.Receivers++
		}
		agg.Expired += l.expired
		l.mu.Unlock()
		agg.Reports += st.Reports
		agg.Retunes += st.Retunes
		agg.HighestSeq = max(agg.HighestSeq, st.HighestSeq)
		if st.N > worstN || (st.N == worstN && st.LossRate > worstLoss) {
			worstN, worstLoss = st.N, st.LossRate
			agg.K, agg.N = st.K, st.N
			agg.Active, agg.LossRate, agg.Mechanism = st.Active, st.LossRate, st.Mechanism
		}
	}
	return agg
}

// queueApply queues a loop for the maintenance goroutine and wakes it. The
// reader takes only this short queue lock; it never waits for an apply.
func (e *Engine) queueApply(l *receiverLoop) {
	e.applyMu.Lock()
	e.applyQ = append(e.applyQ, l)
	e.applyMu.Unlock()
	select {
	case e.applyWake <- struct{}{}:
	default:
	}
}

// applyQueuedLocked applies every queued loop's newest decision. Caller holds
// maintMu, so applies never run concurrently.
func (e *Engine) applyQueuedLocked() {
	e.applyMu.Lock()
	q := e.applyQ
	e.applyQ = nil
	e.applyMu.Unlock()
	for _, l := range q {
		l.apply()
	}
}
