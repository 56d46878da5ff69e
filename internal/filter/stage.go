package filter

import (
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/packet"
	"rapidware/internal/stream"
)

// Stage is the packet-native form of a proxy filter: one step of a composed
// chain that consumes one framed packet at a time and emits zero or more.
// Every compose stage kind is a Stage. The relay engine runs a session's
// stages inline, to completion, on one worker goroutine; the paper's stream
// mode hosts the same stages on detachable streams through Stream, so each
// stage's logic is written once.
//
// Process owns b, whose B holds exactly one marshaled frame: it must emit b,
// release it, or keep it as stage state. Frames handed to emit belong to the
// callee. Process is called from one goroutine at a time and must not block,
// sleep or start goroutines; a stage that holds frames over time releases
// them from Tick. A returned error ends the stream (the engine evicts the
// session).
type Stage interface {
	Name() string
	Process(b *packet.Buf, emit func(*packet.Buf)) error
}

// Flusher is implemented by stages that hold frames between calls — an FEC
// encoder's partial group, a jitter buffer's held frames. Flush emits them at
// end of stream.
type Flusher interface {
	Flush(emit func(*packet.Buf)) error
}

// Ticker is implemented by time-driven stages (delay, ratelimit, jitter).
// The host calls Tick about every TickPeriod while the stage is running.
type Ticker interface {
	TickPeriod() time.Duration
	Tick(now time.Time, emit func(*packet.Buf)) error
}

// Stream hosts a Stage on the paper's detachable streams: it is the one
// adapter from packet stages to stream Filters. Frames are read off the
// input stream, run through the stage and written to the output stream one
// frame per Write, so live splices land on frame boundaries; a Ticker stage
// gets a ticker goroutine, serialized with the read loop. Stage types embed
// a *Stream, which gives them their name and makes them usable in a Chain;
// the stream machinery is only built the first time a stream method is used,
// so a stage the engine runs inline pays nothing for it.
type Stream struct {
	name  string
	stage Stage

	mu   sync.Mutex
	base *Base
}

// NewStream hosts st under the given name.
func NewStream(name string, st Stage) *Stream { return &Stream{name: name, stage: st} }

// filter returns the stream filter, building it on first use.
func (s *Stream) filter() *Base {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base == nil {
		s.base = New(s.name, s.run)
	}
	return s.base
}

// respawn gives a stopped Stream fresh stream endpoints so Chain.Move can
// reinsert it.
func (s *Stream) respawn() Filter {
	s.mu.Lock()
	s.base = nil
	s.mu.Unlock()
	return s
}

// Name implements Filter and Stage.
func (s *Stream) Name() string { return s.name }

// In implements Filter.
func (s *Stream) In() *stream.DetachableReader { return s.filter().In() }

// Out implements Filter.
func (s *Stream) Out() *stream.DetachableWriter { return s.filter().Out() }

// Start implements Filter.
func (s *Stream) Start() error { return s.filter().Start() }

// Stop implements Filter.
func (s *Stream) Stop() error { return s.filter().Stop() }

// Running implements Filter.
func (s *Stream) Running() bool { return s.filter().Running() }

// run is the stream loop: decode frames off r, run them through the stage,
// write whatever it emits to w, and flush the stage at end of stream.
func (s *Stream) run(r io.Reader, w io.Writer) error {
	var mu sync.Mutex // serializes the stage between this loop and the ticker
	var werr error
	emit := func(b *packet.Buf) {
		if werr == nil {
			_, werr = w.Write(b.B)
		}
		b.Release()
	}
	step := func(fn func() error) error {
		mu.Lock()
		defer mu.Unlock()
		if err := fn(); err != nil {
			return err
		}
		return werr
	}
	if t, ok := s.stage.(Ticker); ok {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		defer func() {
			close(done)
			wg.Wait()
		}()
		go func() {
			defer wg.Done()
			tk := time.NewTicker(t.TickPeriod())
			defer tk.Stop()
			for {
				select {
				case <-done:
					return
				case now := <-tk.C:
					if step(func() error { return t.Tick(now, emit) }) != nil {
						return
					}
				}
			}
		}()
	}
	pr := packet.NewReader(r)
	for {
		b, err := pr.ReadFrameBuf(0)
		if err == io.EOF {
			if f, ok := s.stage.(Flusher); ok {
				return step(func() error { return f.Flush(emit) })
			}
			return nil
		}
		if err != nil {
			return err
		}
		if err := step(func() error { return s.stage.Process(b, emit) }); err != nil {
			return err
		}
	}
}

// PacketFunc transforms one decoded packet into zero or more packets to
// forward. Returning an empty slice drops the packet.
type PacketFunc func(*packet.Packet) ([]*packet.Packet, error)

// PacketStage is a Stage around a PacketFunc: each frame is decoded, handed
// to the function, and its results are marshaled into fresh pooled frames.
// It suits stages that rewrite payloads; pass-through stages implement
// Process directly and forward the frame's own buffer.
type PacketStage struct {
	*Stream
	fn    PacketFunc
	flush func() []*packet.Packet
}

// NewPacketFunc returns a stage applying fn to every packet. flush, if
// non-nil, is invoked at end of stream and may emit trailing packets.
func NewPacketFunc(name string, fn PacketFunc, flush func() []*packet.Packet) *PacketStage {
	if name == "" {
		name = "packetfunc"
	}
	ps := &PacketStage{fn: fn, flush: flush}
	ps.Stream = NewStream(name, ps)
	return ps
}

// Process implements Stage.
func (ps *PacketStage) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	p, _, err := packet.Unmarshal(b.B)
	b.Release()
	if err != nil {
		return err
	}
	outs, err := ps.fn(p)
	if err != nil {
		return err
	}
	return emitPackets(outs, emit)
}

// Flush implements Flusher.
func (ps *PacketStage) Flush(emit func(*packet.Buf)) error {
	if ps.flush == nil {
		return nil
	}
	return emitPackets(ps.flush(), emit)
}

// emitPackets marshals each packet into a pooled frame buffer (with session-ID
// headroom) and emits it.
func emitPackets(ps []*packet.Packet, emit func(*packet.Buf)) error {
	for _, p := range ps {
		b := packet.GetFrameBuf(packet.HeaderSize + len(p.Payload))
		frame, err := packet.AppendFrame(b.B[:0], p)
		if err != nil {
			b.Release()
			return err
		}
		b.B = frame
		emit(b)
	}
	return nil
}

// NullStage forwards every frame unchanged, in the buffer it arrived in.
type NullStage struct{ *Stream }

// NewNullStage returns the identity stage.
func NewNullStage(name string) *NullStage {
	if name == "" {
		name = "null"
	}
	ns := &NullStage{}
	ns.Stream = NewStream(name, ns)
	return ns
}

// Process implements Stage.
func (*NullStage) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	emit(b)
	return nil
}

// CountingStage forwards frames unchanged while counting bytes and frames.
type CountingStage struct {
	*Stream
	bytes  atomic.Uint64
	frames atomic.Uint64
}

// NewCountingStage returns a pass-through stage that counts traffic.
func NewCountingStage(name string) *CountingStage {
	if name == "" {
		name = "counting"
	}
	cs := &CountingStage{}
	cs.Stream = NewStream(name, cs)
	return cs
}

// Process implements Stage.
func (cs *CountingStage) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	cs.bytes.Add(uint64(len(b.B)))
	cs.frames.Add(1)
	emit(b)
	return nil
}

// Bytes returns the total number of frame bytes forwarded.
func (cs *CountingStage) Bytes() uint64 { return cs.bytes.Load() }

// Frames returns the number of frames forwarded.
func (cs *CountingStage) Frames() uint64 { return cs.frames.Load() }

// ChecksumStage forwards frames unchanged while keeping a CRC-32 of every
// frame byte forwarded.
type ChecksumStage struct {
	*Stream
	mu  sync.Mutex
	crc uint32
	n   uint64
}

// NewChecksumStage returns a pass-through stage that checksums frames.
func NewChecksumStage(name string) *ChecksumStage {
	if name == "" {
		name = "checksum"
	}
	cs := &ChecksumStage{}
	cs.Stream = NewStream(name, cs)
	return cs
}

// Process implements Stage.
func (cs *ChecksumStage) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	cs.mu.Lock()
	cs.crc = crc32.Update(cs.crc, crc32.IEEETable, b.B)
	cs.n += uint64(len(b.B))
	cs.mu.Unlock()
	emit(b)
	return nil
}

// Sum returns the CRC-32 and byte count of all frames forwarded so far.
func (cs *ChecksumStage) Sum() (crc uint32, n uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.crc, cs.n
}

// DelayStage holds every frame for a fixed delay before forwarding it, in
// arrival order: each frame leaves between d and d+TickPeriod after it
// arrived. Unlike a stage that sleeps per chunk, a held frame does not delay
// the frames behind it beyond their own d.
type DelayStage struct {
	*Stream
	d    time.Duration
	held []heldFrame
}

// heldFrame is one frame held until due (unix nanos).
type heldFrame struct {
	b   *packet.Buf
	due int64
}

// NewDelayStage returns a stage adding latency d to every frame.
func NewDelayStage(name string, d time.Duration) *DelayStage {
	if name == "" {
		name = "delay"
	}
	ds := &DelayStage{d: d}
	ds.Stream = NewStream(name, ds)
	return ds
}

// Process implements Stage.
func (ds *DelayStage) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	if ds.d <= 0 {
		emit(b)
		return nil
	}
	ds.held = append(ds.held, heldFrame{b, time.Now().Add(ds.d).UnixNano()})
	return nil
}

// TickPeriod implements Ticker.
func (ds *DelayStage) TickPeriod() time.Duration { return max(ds.d/4, time.Millisecond) }

// Tick implements Ticker: frames whose delay has passed leave in order.
func (ds *DelayStage) Tick(now time.Time, emit func(*packet.Buf)) error {
	n, t := 0, now.UnixNano()
	for n < len(ds.held) && ds.held[n].due <= t {
		emit(ds.held[n].b)
		n++
	}
	ds.held = slices.Delete(ds.held, 0, n)
	return nil
}

// Flush implements Flusher.
func (ds *DelayStage) Flush(emit func(*packet.Buf)) error {
	for _, h := range ds.held {
		emit(h.b)
	}
	ds.held = slices.Delete(ds.held, 0, len(ds.held))
	return nil
}

// rateTick is the ratelimit stage's refill period.
const rateTick = 10 * time.Millisecond

// RateLimitStage shapes throughput to a byte rate with a token bucket
// refilled every 10 ms. A frame passes while the bucket holds tokens (it may
// drive the bucket negative, so frames larger than one refill still pass);
// otherwise it waits, in order, for later refills. At most one second of
// traffic waits: frames beyond that backlog are shed, so a flooding sender
// cannot grow the stage without bound.
type RateLimitStage struct {
	*Stream
	perTick int
	budget  int
	backlog int // bytes held
	held    []*packet.Buf
}

// NewRateLimitStage returns a stage shaping traffic to bytesPerSecond.
func NewRateLimitStage(name string, bytesPerSecond int) *RateLimitStage {
	if name == "" {
		name = "ratelimit"
	}
	perTick := max(bytesPerSecond/int(time.Second/rateTick), 1)
	rs := &RateLimitStage{perTick: perTick, budget: perTick}
	rs.Stream = NewStream(name, rs)
	return rs
}

// Process implements Stage.
func (rs *RateLimitStage) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	if len(rs.held) == 0 && rs.budget > 0 {
		rs.budget -= len(b.B)
		emit(b)
		return nil
	}
	if rs.backlog+len(b.B) > rs.perTick*int(time.Second/rateTick) {
		b.Release()
		return nil
	}
	rs.backlog += len(b.B)
	rs.held = append(rs.held, b)
	return nil
}

// TickPeriod implements Ticker.
func (rs *RateLimitStage) TickPeriod() time.Duration { return rateTick }

// Tick implements Ticker: refill the bucket and release waiting frames.
func (rs *RateLimitStage) Tick(_ time.Time, emit func(*packet.Buf)) error {
	rs.budget = min(rs.budget+rs.perTick, rs.perTick)
	n := 0
	for n < len(rs.held) && rs.budget > 0 {
		b := rs.held[n]
		rs.budget -= len(b.B)
		rs.backlog -= len(b.B)
		emit(b)
		n++
	}
	rs.held = slices.Delete(rs.held, 0, n)
	return nil
}

// Flush implements Flusher.
func (rs *RateLimitStage) Flush(emit func(*packet.Buf)) error {
	for _, b := range rs.held {
		emit(b)
	}
	rs.held, rs.backlog = slices.Delete(rs.held, 0, len(rs.held)), 0
	return nil
}
