package arq

import (
	"io"
	"testing"
	"time"

	"rapidware/internal/packet"
	"rapidware/internal/stream"
)

// runPackets pushes a sequence of packets through a started filter and
// returns every packet that comes out, in output order.
func runPackets(t *testing.T, f interface {
	In() *stream.DetachableReader
	Out() *stream.DetachableWriter
	Start() error
}, in []*packet.Packet) []*packet.Packet {
	t.Helper()
	src := stream.NewDetachableWriter()
	dst := stream.NewDetachableReader()
	if err := stream.Connect(src, f.In()); err != nil {
		t.Fatal(err)
	}
	if err := stream.Connect(f.Out(), dst); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		pw := packet.NewWriter(src)
		for _, p := range in {
			if err := pw.WritePacket(p); err != nil {
				return
			}
		}
		src.Close()
	}()
	var out []*packet.Packet
	pr := packet.NewReader(dst)
	for {
		p, err := pr.ReadPacket()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("ReadPacket: %v", err)
			}
			return out
		}
		out = append(out, p)
	}
}

func TestSenderFilterRecordsAndRetransmits(t *testing.T) {
	f := NewSenderFilter("", 8)
	if f.HistoryLimit() != 8 {
		t.Fatalf("HistoryLimit = %d, want 8", f.HistoryLimit())
	}
	var in []*packet.Packet
	for seq := uint64(0); seq < 5; seq++ {
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	// Non-data frames pass through but must not enter the history.
	in = append(in, &packet.Packet{Seq: 99, Kind: packet.KindParity, Payload: []byte("p")})
	out := runPackets(t, f, in)
	if len(out) != len(in) {
		t.Fatalf("forwarded %d packets, want %d", len(out), len(in))
	}

	b := f.Frame(3)
	if b == nil {
		t.Fatal("Frame(3) = nil, want buffered")
	}
	rt, _, err := packet.Unmarshal(b.B)
	b.Release()
	if err != nil || rt.Seq != 3 || rt.Kind != packet.KindData || rt.Payload[0] != 3 {
		t.Fatalf("retransmitted frame = %+v, %v", rt, err)
	}
	// The parity frame's sequence number was never admitted.
	if f.Frame(99) != nil {
		t.Fatal("Frame(99) != nil for a non-data sequence")
	}
	if tracked, served, misses := f.Stats(); tracked != 5 || served != 1 || misses != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (5, 1, 1)", tracked, served, misses)
	}
}

func TestSenderFilterRingEviction(t *testing.T) {
	f := NewSenderFilter("arq", 4)
	var in []*packet.Packet
	for seq := uint64(0); seq < 10; seq++ {
		in = append(in, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
	}
	runPackets(t, f, in)
	// Seqs 0..5 were overwritten by 6..9 in the 4-deep ring.
	for seq := uint64(0); seq < 6; seq++ {
		if f.Frame(seq) != nil {
			t.Fatalf("Frame(%d) != nil after eviction", seq)
		}
	}
	for seq := uint64(6); seq < 10; seq++ {
		if f.Frame(seq) == nil {
			t.Fatalf("Frame(%d) = nil, want buffered", seq)
		}
	}
}

func TestSenderFilterDefaults(t *testing.T) {
	f := NewSenderFilter("", 0)
	if f.Name() != "arq" {
		t.Fatalf("Name = %q, want arq", f.Name())
	}
	if f.HistoryLimit() != DefaultHistory {
		t.Fatalf("HistoryLimit = %d, want DefaultHistory %d", f.HistoryLimit(), DefaultHistory)
	}
}

func TestJitterFilterReordersIntoSequence(t *testing.T) {
	f := NewJitterFilter("", 10*time.Millisecond)
	if f.Delay() != 10*time.Millisecond {
		t.Fatalf("Delay = %v", f.Delay())
	}
	// Deliver out of order — as a late ARQ repair would arrive — inside one
	// hold window.
	in := []*packet.Packet{
		{Seq: 2, Kind: packet.KindData, Payload: []byte("c")},
		{Seq: 0, Kind: packet.KindData, Payload: []byte("a")},
		{Seq: 3, Kind: packet.KindData, Payload: []byte("d")},
		{Seq: 1, Kind: packet.KindData, Payload: []byte("b")},
	}
	out := runPackets(t, f, in)
	if len(out) != len(in) {
		t.Fatalf("released %d packets, want %d", len(out), len(in))
	}
	for i, p := range out {
		if p.Seq != uint64(i) {
			t.Fatalf("release order %v, want sequence order", seqsOf(out))
		}
	}
	if buffered, released := f.Stats(); buffered != 4 || released != 4 {
		t.Fatalf("Stats = (%d, %d), want (4, 4)", buffered, released)
	}
}

func TestJitterFilterPassesNonDataImmediately(t *testing.T) {
	// A long delay: if the parity frame were buffered the test would hang on
	// the EOF drain instead of seeing it first.
	f := NewJitterFilter("jitter", time.Second)
	in := []*packet.Packet{
		{Seq: 0, Kind: packet.KindData, Payload: []byte("held")},
		{Seq: 1, Kind: packet.KindParity, Payload: []byte("through")},
	}
	out := runPackets(t, f, in)
	if len(out) != 2 {
		t.Fatalf("got %d packets, want 2", len(out))
	}
	if out[0].Kind != packet.KindParity {
		t.Fatalf("first release kind = %v, want the pass-through parity frame", out[0].Kind)
	}
	// The data frame arrived via the EOF drain, still well before the 1s hold.
	if out[1].Kind != packet.KindData || out[1].Seq != 0 {
		t.Fatalf("second release = %+v, want the drained data frame", out[1])
	}
}

func TestJitterFilterDefaultDelay(t *testing.T) {
	f := NewJitterFilter("", 0)
	if f.Name() != "jitter" || f.Delay() != time.Millisecond {
		t.Fatalf("defaults = (%q, %v), want (jitter, 1ms)", f.Name(), f.Delay())
	}
}

func seqsOf(ps []*packet.Packet) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.Seq
	}
	return out
}
