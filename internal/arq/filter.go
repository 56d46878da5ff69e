package arq

import (
	"container/heap"
	"math"
	"sync"
	"time"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// SenderFilter is the compose-plane "arq" stage: a pass-through that copies
// every data frame it forwards into a bounded ring keyed by sequence number.
// The engine answers KindNack feedback from this history — the
// retransmission path never re-enters the chain, so repairs reach only the
// receiver that asked (unicast), exactly as the paper's ARQ baseline does.
// The hot path adds one mutex-guarded frame copy per data packet into slot
// storage reused once warm; history eviction is implicit in the ring
// overwrite.
type SenderFilter struct {
	*filter.Stream

	mu      sync.Mutex
	ring    [][]byte // ring[seq%len] holds the frame iff its header says seq
	tracked uint64
	served  uint64
	misses  uint64
}

// NewSenderFilter returns an ARQ history stage keeping the last historyLimit
// data packets available for retransmission (<=0 selects DefaultHistory).
func NewSenderFilter(name string, historyLimit int) *SenderFilter {
	if name == "" {
		name = "arq"
	}
	if historyLimit <= 0 {
		historyLimit = DefaultHistory
	}
	f := &SenderFilter{ring: make([][]byte, historyLimit)}
	f.Stream = filter.NewStream(name, f)
	return f
}

// Process implements filter.Stage.
func (f *SenderFilter) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	if packet.FrameKind(b.B) == packet.KindData {
		slot := &f.ring[packet.FrameSeq(b.B)%uint64(len(f.ring))]
		f.mu.Lock()
		*slot = append((*slot)[:0], b.B...)
		f.tracked++
		f.mu.Unlock()
	}
	emit(b)
	return nil
}

// Frame returns a copy of the buffered frame for seq in a pooled buffer with
// session-ID headroom (see packet.GetFrameBuf), or nil when the history no
// longer (or never) held it. The caller owns the buffer.
func (f *SenderFilter) Frame(seq uint64) *packet.Buf {
	f.mu.Lock()
	defer f.mu.Unlock()
	frame := f.ring[seq%uint64(len(f.ring))]
	if len(frame) < packet.HeaderSize || packet.FrameSeq(frame) != seq {
		f.misses++
		return nil
	}
	f.served++
	b := packet.GetFrameBuf(len(frame))
	copy(b.B, frame)
	return b
}

// HistoryLimit returns the ring depth.
func (f *SenderFilter) HistoryLimit() int { return len(f.ring) }

// Stats returns how many data packets were admitted to the history, how many
// retransmissions were served, and how many requests missed (already
// evicted or never sent).
func (f *SenderFilter) Stats() (tracked, served, misses uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tracked, f.served, f.misses
}

// jitterEntry is one held frame with its sequence number and release
// deadline (unix nanos).
type jitterEntry struct {
	b   *packet.Buf
	seq uint64
	due int64
}

// jitterHeap orders held frames by sequence number, so releases are always
// in-order among buffered frames.
type jitterHeap []jitterEntry

func (h jitterHeap) Len() int            { return len(h) }
func (h jitterHeap) Less(i, j int) bool  { return h[i].seq < h[j].seq }
func (h jitterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jitterHeap) Push(x interface{}) { *h = append(*h, x.(jitterEntry)) }
func (h *jitterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = jitterEntry{}
	*h = old[:n-1]
	return e
}

// JitterFilter is the compose-plane "jitter=<ms>" stage: a reorder/smoothing
// buffer that holds each data frame for a fixed delay and releases buffered
// frames in sequence order — the playout-buffer half of the reliability
// spectrum, which gives ARQ repairs a window to slot retransmissions back
// into sequence before delivery. Non-data frames (parity, control, feedback)
// pass straight through. Due frames leave from Tick; Flush releases the rest
// in sequence order.
type JitterFilter struct {
	*filter.Stream
	delay time.Duration

	mu       sync.Mutex
	heap     jitterHeap
	buffered uint64 // total data frames held
	released uint64 // total data frames released
}

// NewJitterFilter returns a smoothing buffer holding data frames for delay
// before releasing them in sequence order (non-positive delays select 1ms).
func NewJitterFilter(name string, delay time.Duration) *JitterFilter {
	if name == "" {
		name = "jitter"
	}
	if delay <= 0 {
		delay = time.Millisecond
	}
	f := &JitterFilter{delay: delay}
	f.Stream = filter.NewStream(name, f)
	return f
}

// Process implements filter.Stage.
func (f *JitterFilter) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	if packet.FrameKind(b.B) != packet.KindData {
		emit(b)
		return nil
	}
	f.mu.Lock()
	heap.Push(&f.heap, jitterEntry{b: b, seq: packet.FrameSeq(b.B), due: time.Now().Add(f.delay).UnixNano()})
	f.buffered++
	f.mu.Unlock()
	return nil
}

// TickPeriod implements filter.Ticker.
func (f *JitterFilter) TickPeriod() time.Duration { return max(f.delay/4, time.Millisecond) }

// Tick implements filter.Ticker: due frames leave in sequence order. Release
// stops at the first not-yet-due frame so a still-maturing low sequence
// number is never jumped.
func (f *JitterFilter) Tick(now time.Time, emit func(*packet.Buf)) error {
	f.release(now.UnixNano(), emit)
	return nil
}

// Flush implements filter.Flusher: everything still held leaves, in
// sequence order.
func (f *JitterFilter) Flush(emit func(*packet.Buf)) error {
	f.release(math.MaxInt64, emit)
	return nil
}

func (f *JitterFilter) release(now int64, emit func(*packet.Buf)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.heap) > 0 && f.heap[0].due <= now {
		emit(heap.Pop(&f.heap).(jitterEntry).b)
		f.released++
	}
}

// Delay returns the configured hold time.
func (f *JitterFilter) Delay() time.Duration { return f.delay }

// Stats returns how many data frames have been buffered and released; the
// difference is the current buffer depth.
func (f *JitterFilter) Stats() (buffered, released uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buffered, f.released
}

var (
	_ filter.Stage  = (*SenderFilter)(nil)
	_ filter.Ticker = (*JitterFilter)(nil)
)
