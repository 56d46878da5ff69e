package filter

import (
	"sync"

	"rapidware/internal/packet"
)

// BufSink consumes one pooled frame buffer. The callee takes ownership of one
// reference and must Release it exactly once; it must treat the bytes as
// read-only, because a Tee hands the same storage to every tap.
type BufSink func(*packet.Buf)

// Tee fans one stream of pooled frame buffers out to a dynamic set of taps
// without copying payload bytes: Dispatch retains len(taps)-1 extra
// references on the buffer and hands the same *packet.Buf to every tap. It is
// the composition primitive under the engine's delivery tree — a session's
// trunk chain terminates in a Tee whose taps are the per-receiver branch
// tails.
//
// Dispatch holds the tee's read lock (two uncontended atomics, no allocation)
// while it loads the tap set and hands the buffer to every tap; SetTaps is
// for the control path (membership reconciliation) and may be called
// concurrently with Dispatch. Swap additionally runs a control-path critical
// section at an exact cut in the dispatch stream — after every Dispatch that
// saw the old tap set and before any Dispatch sees the new one — the hook
// delivery cohorts use to cut handover fences.
type Tee struct {
	mu   sync.RWMutex
	taps []BufSink
}

// NewTee returns a tee with no taps; Dispatch releases every buffer until
// taps are attached.
func NewTee() *Tee { return &Tee{} }

// SetTaps replaces the tap set. The slice is published as-is and must not be
// mutated by the caller afterwards. nil (or empty) detaches every tap.
func (t *Tee) SetTaps(taps []BufSink) {
	t.Swap(taps, nil)
}

// Swap replaces the tap set and runs fn (which may be nil) at the cut: when
// fn runs, every buffer dispatched through the old taps has been fully handed
// to them, and no buffer reaches the new taps until fn returns. fn must not
// call Dispatch (it would deadlock behind its own barrier) and should be
// brief: Dispatch waits for it.
func (t *Tee) Swap(taps []BufSink, fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.taps = taps
	if fn != nil {
		fn()
	}
}

// Len returns the current number of taps.
func (t *Tee) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.taps)
}

// Dispatch fans b out to every tap, cloning ownership (reference counts)
// rather than bytes. It consumes the caller's reference: with no taps the
// buffer is released, with n taps each receives the same buffer holding one
// of n references. It returns how many taps received the buffer.
func (t *Tee) Dispatch(b *packet.Buf) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	taps := t.taps
	if len(taps) == 0 {
		b.Release()
		return 0
	}
	if n := len(taps); n > 1 {
		b.Retain(n - 1)
	}
	for _, tap := range taps {
		tap(b)
	}
	return len(taps)
}
