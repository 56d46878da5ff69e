package engine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"rapidware/internal/packet"
)

// Idle-session parking: the mechanism that lets the engine hold a million
// mostly-idle sessions. A live session costs one worker goroutine, its stage
// slice and a queue of pooled buffers. After Config.IdleTTL with no traffic
// the engine's maintenance tick *parks* the session: the worker flushes what
// its stages still hold (an FEC encoder's partial group, a delay stage's
// frames) and exits, the stage slice and the queue are released, and all that
// remains is the Session struct — identity, counters, peer — plus the
// canonical compose.Plan and an adaptation snapshot. The first inbound
// datagram (or control operation) *unparks* it by rebuilding the stage slice
// from the retained plan, transparently to peers; a new session's first
// datagram builds its first incarnation the same way. Parked sessions keep
// their registration: the session ID, its pinned peer and its counters all
// survive, so parking is invisible except as first-packet rebuild latency.

// errSessionClosed reports an unpark attempt on a session that is being torn
// down.
var errSessionClosed = errors.New("engine: session closed")

// park tears down the session's chain incarnation, retaining only the compact
// parked record. It reports whether the session transitioned live→parked.
// Datagrams that raced into the retiring queue are reclaimed and re-delivered
// through a fresh incarnation — parking never loses a datagram.
func (s *Session) park() bool {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	cs := s.cs.Load()
	if cs == nil || s.isClosed() {
		return false
	}
	var snap = s.parkedAdapt
	if cs.adaptor != nil {
		snap = cs.adaptor.stats()
	}
	// Retire under parkMu, which turns any queued adaptation apply for this
	// incarnation into a no-op, then stop the worker: it flushes its stages
	// in order and exits. Datagrams still queued are not the old worker's to
	// run; they are reclaimed below.
	s.stopLocked(cs)
	// Share the engine's plan when unrewritten: a fresh copy pins dead memory.
	if s.parkedPlan = cs.live.Plan(); slices.Equal(s.parkedPlan.Stages, s.eng.trunkPlan.Stages) {
		s.parkedPlan = s.eng.trunkPlan
	}
	s.parkedAdapt = snap
	s.cs.Store(nil)
	s.parked.Store(true)
	s.shard.counters.parkedNow.Add(1)
	s.shard.counters.parks.Add(1)
	// Reclaim datagrams that raced past deliver's confirming load into the
	// retired queue: they are exactly the traffic that proves the session is
	// not idle after all, so rebuild immediately and re-deliver them in order.
	// Each was already counted by its deliverer (the confirming-load protocol
	// guarantees exactly one of deliver and this drain owns it), so they are
	// re-enqueued without recounting.
	var leftovers []*packet.Buf
reclaim:
	for {
		select {
		case b := <-cs.in:
			leftovers = append(leftovers, b)
		default:
			break reclaim
		}
	}
	if len(leftovers) > 0 {
		if _, err := s.unparkLocked(leftovers...); err != nil {
			for _, b := range leftovers {
				s.counters.Drops.Add(1)
				b.Release()
			}
		}
	}
	return true
}

// unpark rebuilds a session's incarnation from its retained plan. It is the
// slow path of control operations addressing a parked session; on a live
// session it is a no-op returning the current state.
func (s *Session) unpark() (*chainState, error) {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	if cs := s.cs.Load(); cs != nil {
		return cs, nil
	}
	if s.isClosed() {
		return nil, errSessionClosed
	}
	return s.unparkLocked()
}

// unparkLocked builds an incarnation from the retained plan, queues the given
// datagrams ahead of anything else, and only then publishes it. The caller
// holds parkMu and has verified the session has no incarnation and is not
// closed. A failed build counts a chain error; the datagrams stay the
// caller's.
func (s *Session) unparkLocked(queued ...*packet.Buf) (*chainState, error) {
	cs, err := s.eng.buildChainState(s, s.parkedPlan)
	if err != nil {
		s.shard.counters.chainErrors.Add(1)
		s.eng.logf("session %d: build: %v", s.id, err)
		return nil, err
	}
	for _, b := range queued {
		select {
		case cs.in <- b:
		default: // cannot happen: the fresh queue is as deep as the one drained
			s.counters.Drops.Add(1)
			b.Release()
		}
	}
	if s.parked.CompareAndSwap(true, false) {
		s.shard.counters.parkedNow.Add(-1)
		s.shard.counters.unparks.Add(1)
	}
	s.idleSince.Store(time.Now().UnixNano())
	s.idleSeen.Store(s.activitySum())
	s.cs.Store(cs)
	return cs, nil
}

// ensureLive returns the session's chain-bound state for a control operation,
// rebuilding it first when the session is parked. The control touch counts as
// activity so an operator composing a session holds its idle clock back.
func (s *Session) ensureLive() (*chainState, error) {
	s.ctlActivity.Add(1)
	if cs := s.cs.Load(); cs != nil {
		return cs, nil
	}
	return s.unpark()
}

// ParkSession immediately parks the session with the given ID, as the idle
// harvester would after the TTL. Exposed for operators draining capacity
// ahead of load and for benchmarks; parking an already-parked session is a
// no-op.
func (e *Engine) ParkSession(id uint32) error {
	s := e.table.lookup(id)
	if s == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s.park()
	return nil
}

// maintInterval derives the single maintenance ticker's period from the two
// concerns it serves: stale-receiver sweeps resolve at a quarter of the
// report-staleness window, idle harvesting at a quarter of the idle TTL.
// Returns 0 when neither concern is configured: no ticker, and no maintenance
// goroutine at all unless the adaptation plane needs it to apply decisions.
func (e *Engine) maintInterval() time.Duration {
	var iv time.Duration
	if e.adaptOn && e.cfg.ReportStaleness > 0 {
		iv = e.cfg.ReportStaleness / 4
	}
	if ttl := e.cfg.IdleTTL; ttl > 0 {
		if q := ttl / 4; iv == 0 || q < iv {
			iv = q
		}
	}
	if iv > 0 && iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// maintenanceLoop is the engine's one background goroutine beyond the shard
// loops: a single ticker drives stale-receiver aging and idle-session
// harvesting for every session, and queued adaptation loops wake it to apply
// their decisions. interval 0 runs no ticker.
func (e *Engine) maintenanceLoop(interval time.Duration) {
	defer e.wg.Done()
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			e.maintain(time.Now())
		case <-e.applyWake:
			e.maintMu.Lock()
			e.applyQueuedLocked()
			e.maintMu.Unlock()
		case <-e.stopWriters:
			return
		}
	}
}

// maintain runs one maintenance tick at the given time: every live session's
// receiver loops are aged against the staleness window (when aging is on),
// every live session whose activity sum hasn't moved since the previous tick
// for at least IdleTTL is parked, and every queued adaptation decision is
// applied. Taking `now` as a parameter keeps the tick deterministic under
// test. Parked sessions are skipped — they cost nothing and have nothing to
// age.
func (e *Engine) maintain(now time.Time) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	defer e.applyQueuedLocked()
	sweep := e.adaptOn && e.cfg.ReportStaleness > 0
	harvest := e.cfg.IdleTTL > 0
	if !sweep && !harvest {
		return
	}
	nanos := now.UnixNano()
	for _, s := range e.table.snapshot() {
		cs := s.cs.Load()
		if cs == nil {
			continue
		}
		if sweep && cs.adaptor != nil {
			cs.adaptor.expire(nanos - int64(e.cfg.ReportStaleness))
		}
		if harvest {
			if sum := s.activitySum(); sum != s.idleSeen.Load() {
				s.idleSeen.Store(sum)
				s.idleSince.Store(nanos)
				continue
			}
			if nanos-s.idleSince.Load() >= int64(e.cfg.IdleTTL) {
				s.park()
			}
		}
	}
}

// harvestOldestIdle frees one admission slot under the AdmitHarvest policy by
// evicting the best victim: a parked session if any, else the live session
// idle the longest. The scan starts at the table shard that will own the
// incoming ID — O(sessions/shards) in the common case — and walks subsequent
// shards only if that one is empty. It reports whether a slot was freed,
// false only when the table holds no victim at all.
func (e *Engine) harvestOldestIdle(incoming uint32) bool {
	var victim *Session
	for {
		if victim = e.table.oldestIdle(incoming); victim == nil {
			return false
		}
		if e.table.remove(victim.id, victim) {
			break
		}
		// Somebody else (a concurrent harvest, close, or an eviction)
		// removed this victim first; it is out of the table, so the next
		// scan picks another.
	}
	e.active.Add(-1)
	victim.shard.counters.harvested.Add(1)
	e.logf("session %d: harvested for admission", victim.id)
	victim.close()
	return true
}
