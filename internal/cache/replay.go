package cache

import (
	"fmt"
	"strconv"
	"sync"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// ReplayFilter is the compose-plane "replay=<n>" stage: a pass-through that
// keeps the last n data frames of the trunk stream in an LRU object cache so
// a receiver joining a fan-out session mid-stream can be primed with recent
// history on its delivery branch — the paper's collaborative-session
// scenario, where a late-joining station must catch up on state it missed.
// The engine primes a freshly admitted receiver from VisitFrames.
type ReplayFilter struct {
	*filter.Stream

	n int

	mu       sync.Mutex
	lru      *LRU
	seqs     []uint64 // ring of cached sequence numbers, oldest at head
	head     int
	count    int
	admitted uint64
	primes   uint64
}

// seqKey renders a sequence number as an LRU cache key.
func seqKey(seq uint64) string { return strconv.FormatUint(seq, 10) }

// NewReplayFilter returns a catch-up stage retaining the last n data frames.
func NewReplayFilter(name string, n int) (*ReplayFilter, error) {
	if name == "" {
		name = "replay"
	}
	if n <= 0 {
		return nil, fmt.Errorf("cache: replay depth must be positive, got %d", n)
	}
	// Size the cache so byte-bounded eviction can never fire before the
	// explicit count-n eviction: n frames of the largest datagram the engine
	// accepts always fit.
	lru, err := NewLRU(n * packet.MaxDatagram)
	if err != nil {
		return nil, err
	}
	f := &ReplayFilter{n: n, lru: lru, seqs: make([]uint64, n)}
	f.Stream = filter.NewStream(name, f)
	return f, nil
}

// Process implements filter.Stage: a copy of every data frame is retained,
// and the frame itself passes on.
func (f *ReplayFilter) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	if packet.FrameKind(b.B) == packet.KindData {
		f.admit(packet.FrameSeq(b.B), append([]byte(nil), b.B...))
	}
	emit(b)
	return nil
}

// admit stores one marshaled data frame, evicting the oldest when the ring
// is full.
func (f *ReplayFilter) admit(seq uint64, frame []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.count == f.n {
		f.lru.Delete(seqKey(f.seqs[f.head]))
		f.seqs[f.head] = seq
		f.head = (f.head + 1) % f.n
	} else {
		f.seqs[(f.head+f.count)%f.n] = seq
		f.count++
	}
	// Put only fails for frames over capacity, which the sizing above rules
	// out.
	_ = f.lru.Put(seqKey(seq), frame)
	f.admitted++
}

// Frames returns copies of the retained data frames in admission order
// (oldest first) and counts one priming drain.
func (f *ReplayFilter) Frames() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]byte, 0, f.count)
	for i := 0; i < f.count; i++ {
		if v, ok := f.lru.Get(seqKey(f.seqs[(f.head+i)%f.n])); ok {
			out = append(out, v)
		}
	}
	if len(out) > 0 {
		f.primes++
	}
	return out
}

// VisitFrames invokes visit for each retained data frame in admission order
// (oldest first), handing each frame's bytes in place under the filter's lock
// — the allocation-free priming drain. visit must not retain or mutate the
// frame past the call (copy into pooled storage instead). It returns the
// number of frames visited and counts one priming drain when any were.
func (f *ReplayFilter) VisitFrames(visit func(frame []byte)) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	visited := 0
	for i := 0; i < f.count; i++ {
		if f.lru.View(seqKey(f.seqs[(f.head+i)%f.n]), visit) {
			visited++
		}
	}
	if visited > 0 {
		f.primes++
	}
	return visited
}

// Depth returns the configured retention depth n.
func (f *ReplayFilter) Depth() int { return f.n }

// Stats returns how many data frames were admitted, how many are currently
// retained, and how many priming drains served at least one frame.
func (f *ReplayFilter) Stats() (admitted uint64, retained int, primes uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitted, f.count, f.primes
}

// Cache exposes the underlying LRU for statistics.
func (f *ReplayFilter) Cache() *LRU { return f.lru }

var _ filter.Stage = (*ReplayFilter)(nil)
