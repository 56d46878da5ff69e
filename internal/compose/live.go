package compose

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// Errors returned by Live operations.
var (
	// ErrNoStage is returned when an operation names a stage (or marker) the
	// plan does not contain.
	ErrNoStage = errors.New("compose: no such stage in the plan")
	// ErrMarkerActive is returned by Activate when the marker already has an
	// instance.
	ErrMarkerActive = errors.New("compose: marker stage already active")
)

// Live binds a running stage slice to its plan and keeps the two consistent.
// Every structural mutation (a control-plane recompose, a single-stage
// insert/remove/move, an adaptation loop activating or deactivating its
// marker instance) is a plan rewrite: instances that survive the rewrite
// carry over with their state intact, the new immutable slice is built on
// the control path, and only the final swap touches the data path — between
// two frames, so the data path never runs a stage after it has been swapped
// out. A stage leaving the slice first flushes what it holds (an FEC
// encoder's partial group, a delay stage's frames) through the stages after
// it, so a rewrite loses no frame.
//
// The data path is one owner goroutine (the engine's session or cohort
// worker) calling Process, Tick and Flush; every stage runs inline on it, to
// completion, and the last stage's output goes to the sink given to New.
type Live struct {
	mu   sync.Mutex // serializes rewrites
	reg  *Registry
	env  Env
	mode Mode
	sink func(*packet.Buf)
	plan Plan
	// inst holds the slot realizing each plan stage, index-aligned with
	// plan.Stages; nil for a marker no adaptation loop has activated.
	inst []*slot

	// run is held by the data path across one frame (or tick or flush) and
	// by the swap, which is what places every swap between two frames.
	run  sync.Mutex
	pipe *pipeline
	// period is the running slice's tick period (0 when no stage ticks),
	// readable without run.
	period atomic.Int64

	// view is the last applied (plan, instances) pair. Read paths — Plan,
	// String, Instance, StageStats — load it without any lock.
	view atomic.Pointer[liveView]
}

// slot is one stage instance plus the data path's per-stage byte counters,
// which carry over with the instance across rewrites.
type slot struct {
	st      filter.Stage
	in, out atomic.Uint64
}

// liveView is one immutable published state of a Live.
type liveView struct {
	plan Plan
	inst []*slot
}

// pipeline is one immutable running stage slice: emits[i] feeds stage i,
// outs[i] takes stage i's output (and feeds emits[i+1], or the sink).
type pipeline struct {
	slots []*slot
	emits []func(*packet.Buf)
	outs  []func(*packet.Buf)
	err   error // first stage error of the current frame; data path only
}

func newPipeline(slots []*slot, sink func(*packet.Buf)) *pipeline {
	p := &pipeline{
		slots: slots,
		emits: make([]func(*packet.Buf), len(slots)+1),
		outs:  make([]func(*packet.Buf), len(slots)),
	}
	p.emits[len(slots)] = sink
	for i := len(slots) - 1; i >= 0; i-- {
		sl, next := slots[i], p.emits[i+1]
		p.outs[i] = func(b *packet.Buf) {
			sl.out.Add(uint64(len(b.B)))
			next(b)
		}
		out := p.outs[i]
		p.emits[i] = func(b *packet.Buf) {
			sl.in.Add(uint64(len(b.B)))
			p.fail(sl, sl.st.Process(b, out))
		}
	}
	return p
}

// fail records the first stage error of the current frame.
func (p *pipeline) fail(sl *slot, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("stage %s: %w", sl.st.Name(), err)
	}
}

// New builds plan's stage instances through reg and returns the Live running
// them into sink. mode governs which stages later rewrites may contain.
func New(reg *Registry, env Env, mode Mode, plan Plan, sink func(*packet.Buf)) (*Live, error) {
	l := &Live{reg: reg, env: env, mode: mode, sink: sink}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.recomposeLocked(plan); err != nil {
		return nil, err
	}
	return l, nil
}

// Process runs one frame through the stage slice. It returns the first error
// a stage reported, after which the stream should end.
func (l *Live) Process(b *packet.Buf) error {
	l.run.Lock()
	defer l.run.Unlock()
	p := l.pipe
	p.emits[0](b)
	err := p.err
	p.err = nil
	return err
}

// TickPeriod returns how often Tick should run: the shortest period of any
// time-driven stage in the running slice, 0 when none ticks.
func (l *Live) TickPeriod() time.Duration { return time.Duration(l.period.Load()) }

// Tick drives every time-driven stage, in order; what a stage releases flows
// through the stages after it.
func (l *Live) Tick(now time.Time) error {
	return l.each(func(st filter.Stage, out func(*packet.Buf)) error {
		if t, ok := st.(filter.Ticker); ok {
			return t.Tick(now, out)
		}
		return nil
	})
}

// Flush ends the stream: each stage, in order, emits what it still holds
// through the stages after it.
func (l *Live) Flush() error {
	return l.each(func(st filter.Stage, out func(*packet.Buf)) error {
		if f, ok := st.(filter.Flusher); ok {
			return f.Flush(out)
		}
		return nil
	})
}

func (l *Live) each(fn func(filter.Stage, func(*packet.Buf)) error) error {
	l.run.Lock()
	defer l.run.Unlock()
	p := l.pipe
	for i, sl := range p.slots {
		p.fail(sl, fn(sl.st, p.outs[i]))
	}
	err := p.err
	p.err = nil
	return err
}

// snapshot returns the last published state (never nil after New).
func (l *Live) snapshot() *liveView {
	if v := l.view.Load(); v != nil {
		return v
	}
	return &liveView{}
}

// Plan returns a copy of the current plan.
func (l *Live) Plan() Plan {
	return l.snapshot().plan.Clone()
}

// String returns the current plan's canonical spec string.
func (l *Live) String() string {
	return l.snapshot().plan.String()
}

// Recompose atomically rewrites the chain to the target plan. Stages whose
// kind and argument match a current stage keep their live instance
// (counters, FEC group state and all); an active marker instance survives as
// long as the target retains the marker. Everything else is built fresh
// through the registry, and stages that fall out of the plan flush what they
// held on the way out.
func (l *Live) Recompose(target Plan) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recomposeLocked(target)
}

// InsertStage splices one stage into the plan at pos (a plan position;
// pos == Len appends) and recomposes.
func (l *Live) InsertStage(st Stage, pos int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	canon, err := l.reg.CanonStage(st.Kind, st.Arg)
	if err != nil {
		return err
	}
	target, err := l.plan.WithInsert(pos, canon)
	if err != nil {
		return err
	}
	return l.recomposeLocked(target)
}

// RemoveStageAt removes the stage at plan position pos and recomposes.
func (l *Live) RemoveStageAt(pos int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target, err := l.plan.WithRemove(pos)
	if err != nil {
		return err
	}
	return l.recomposeLocked(target)
}

// RemoveStageKind removes the first stage with the given kind and
// recomposes.
func (l *Live) RemoveStageKind(kind string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	pos := l.plan.Index(kind)
	if pos < 0 {
		return fmt.Errorf("%w: %q", ErrNoStage, kind)
	}
	target, err := l.plan.WithRemove(pos)
	if err != nil {
		return err
	}
	return l.recomposeLocked(target)
}

// MoveStage relocates the stage at plan position from to position to and
// recomposes. The moved stage keeps its live instance.
func (l *Live) MoveStage(from, to int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target, err := l.plan.WithMove(from, to)
	if err != nil {
		return err
	}
	return l.recomposeLocked(target)
}

// Activate installs st as the instance of the plan's marker stage with the
// given kind — the adaptation loop's way of expressing "protection on" as a
// plan operation. It fails with ErrNoStage when the plan carries no such
// marker (an operator recomposed it away) and ErrMarkerActive when an
// instance is already live.
func (l *Live) Activate(kind string, st filter.Stage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := l.markerIndexLocked(kind)
	if idx < 0 {
		return fmt.Errorf("%w: marker %q", ErrNoStage, kind)
	}
	if l.inst[idx] != nil {
		return fmt.Errorf("%w: %q", ErrMarkerActive, kind)
	}
	l.inst[idx] = &slot{st: st}
	l.applyLocked()
	return nil
}

// Deactivate removes the marker stage's live instance, leaving the marker in
// the plan for a later Activate. It reports whether an instance was actually
// removed; a plan without the marker is not an error — there is nothing to
// deactivate.
func (l *Live) Deactivate(kind string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := l.markerIndexLocked(kind)
	if idx < 0 || l.inst[idx] == nil {
		return false
	}
	l.inst[idx] = nil
	l.applyLocked()
	return true
}

// Instance returns the live instance of the first stage with the given kind
// (markers included), or nil when the plan has no such stage or the marker
// is inactive.
func (l *Live) Instance(kind string) filter.Stage {
	v := l.snapshot()
	for i, st := range v.plan.Stages {
		if st.Kind == kind {
			if sl := v.inst[i]; sl != nil {
				return sl.st
			}
			return nil
		}
	}
	return nil
}

// StageStats snapshots the per-stage view the control plane reports: one
// entry per plan stage, in order, with the live instance's name and the
// bytes the data path ran into and out of it.
func (l *Live) StageStats() []metrics.StageStats {
	v := l.snapshot()
	out := make([]metrics.StageStats, len(v.plan.Stages))
	for i, st := range v.plan.Stages {
		s := metrics.StageStats{Kind: st.Kind, Spec: st.String()}
		if sl := v.inst[i]; sl != nil {
			s.Name = sl.st.Name()
			s.Active = true
			s.InBytes, s.OutBytes = sl.in.Load(), sl.out.Load()
		}
		out[i] = s
	}
	return out
}

// markerIndexLocked returns the plan index of the marker stage with the
// given kind, or -1.
func (l *Live) markerIndexLocked(kind string) int {
	for i, st := range l.plan.Stages {
		if st.Kind != kind {
			continue
		}
		if d, ok := l.reg.Lookup(st.Kind); ok && d.Marker {
			return i
		}
	}
	return -1
}

// recomposeLocked validates target, carries over every matching live
// instance, builds the rest, and swaps the new slice in. Caller holds l.mu.
func (l *Live) recomposeLocked(target Plan) error {
	if err := l.reg.Validate(target, l.mode); err != nil {
		return err
	}
	// Match target stages to current instances by identity (kind + canonical
	// arg), each instance used at most once, scanning in order so duplicates
	// pair up stably and a moved stage keeps its instance.
	used := make([]bool, len(l.inst))
	next := make([]*slot, len(target.Stages))
	for i, st := range target.Stages {
		for j, cur := range l.plan.Stages {
			if !used[j] && cur.key() == st.key() {
				next[i], used[j] = l.inst[j], true
				break
			}
		}
	}
	for i, st := range target.Stages {
		if next[i] != nil {
			continue
		}
		if d, ok := l.reg.Lookup(st.Kind); ok && d.Marker {
			continue // markers start inactive; adaptation loops activate them
		}
		f, err := l.reg.Build(l.env, st)
		if err != nil {
			return err
		}
		next[i] = &slot{st: f}
	}
	l.plan, l.inst = target.Clone(), next
	l.applyLocked()
	return nil
}

// applyLocked builds the running slice from the current instances, swaps it
// in between two frames, and publishes the new state. Caller holds l.mu.
func (l *Live) applyLocked() {
	slots := make([]*slot, 0, len(l.inst))
	var period time.Duration
	for _, sl := range l.inst {
		if sl == nil {
			continue
		}
		slots = append(slots, sl)
		if t, ok := sl.st.(filter.Ticker); ok && (period == 0 || t.TickPeriod() < period) {
			period = t.TickPeriod()
		}
	}
	p := newPipeline(slots, l.sink)
	l.run.Lock()
	if old := l.pipe; old != nil {
		// Stages leaving the slice flush what they hold through the stages
		// after them, in order, so a rewrite loses nothing; an error surfaces
		// on the data path's next call.
		for i, sl := range old.slots {
			if f, ok := sl.st.(filter.Flusher); ok && !slices.Contains(slots, sl) {
				old.fail(sl, f.Flush(old.outs[i]))
			}
		}
		p.err = old.err
	}
	l.pipe = p
	l.period.Store(int64(period))
	l.run.Unlock()
	l.view.Store(&liveView{plan: l.plan.Clone(), inst: append([]*slot(nil), l.inst...)})
}
