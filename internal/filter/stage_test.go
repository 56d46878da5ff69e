package filter

import (
	"testing"
	"time"

	"rapidware/internal/packet"
)

// frame returns a pooled data frame carrying seq and an n-byte payload.
func frame(t *testing.T, seq uint64, n int) *packet.Buf {
	t.Helper()
	b := packet.GetFrameBuf(packet.HeaderSize + n)
	f, err := packet.AppendFrame(b.B[:0], &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: make([]byte, n)})
	if err != nil {
		t.Fatal(err)
	}
	b.B = f
	return b
}

// collect is an emit that records sequence numbers.
type collect []uint64

func (c *collect) emit(b *packet.Buf) {
	*c = append(*c, packet.FrameSeq(b.B))
	b.Release()
}

func TestDelayStageHoldsFramesUntilDue(t *testing.T) {
	ds := NewDelayStage("", 20*time.Millisecond)
	var out collect
	for seq := uint64(0); seq < 3; seq++ {
		if err := ds.Process(frame(t, seq, 8), out.emit); err != nil {
			t.Fatal(err)
		}
	}
	if ds.TickPeriod() != 5*time.Millisecond {
		t.Fatalf("TickPeriod = %v, want d/4", ds.TickPeriod())
	}
	ds.Tick(time.Now(), out.emit)
	if len(out) != 0 {
		t.Fatalf("released %v before the delay", out)
	}
	ds.Tick(time.Now().Add(25*time.Millisecond), out.emit)
	if len(out) != 3 || out[0] != 0 || out[2] != 2 {
		t.Fatalf("released %v after the delay, want 0 1 2", out)
	}
	ds.Process(frame(t, 3, 8), out.emit)
	ds.Flush(out.emit)
	if len(out) != 4 || out[3] != 3 {
		t.Fatalf("Flush released %v", out)
	}
}

func TestRateLimitStageQueuesAndSheds(t *testing.T) {
	// 10000 B/s is 100 B per 10 ms refill; frames carry 72 B.
	rs := NewRateLimitStage("", 10000)
	var out collect
	for seq := uint64(0); seq < 20; seq++ {
		rs.Process(frame(t, seq, 72-packet.HeaderSize), out.emit)
	}
	if len(out) != 2 {
		t.Fatalf("passed %v up front, want the first two (one refill of budget)", out)
	}
	rs.Tick(time.Now(), out.emit)
	if len(out) != 3 || out[2] != 2 {
		t.Fatalf("after one refill: %v", out)
	}
	// One second of backlog (10000 B) holds every queued frame; beyond it
	// frames are shed.
	for seq := uint64(20); seq < 200; seq++ {
		rs.Process(frame(t, seq, 72-packet.HeaderSize), out.emit)
	}
	rs.Flush(out.emit)
	if n := len(out); n < 130 || n > 142 {
		t.Fatalf("%d frames left the stage, want about one second of backlog plus what passed", n)
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatalf("frames left out of order: %v", out)
		}
	}
}
