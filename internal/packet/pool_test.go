package packet

import (
	"bytes"
	"testing"
)

func TestGetBufSizes(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 2048, 4096, MaxDatagram, MaxDatagram + 1} {
		b := GetBuf(n)
		if len(b.B) != n {
			t.Fatalf("GetBuf(%d): len = %d", n, len(b.B))
		}
		if b.Cap() < n {
			t.Fatalf("GetBuf(%d): cap = %d", n, b.Cap())
		}
		b.Release()
	}
}

// TestBufSurvivesReslicing covers the relay engine's usage pattern: the
// session strips the datagram prefix by advancing B, then releases; the
// buffer must come back at full size.
func TestBufSurvivesReslicing(t *testing.T) {
	b := GetBuf(100)
	b.B = b.B[SessionIDSize:]
	b.B = b.B[:10]
	b.Release()
	for i := 0; i < 10; i++ {
		nb := GetBuf(512)
		if len(nb.B) != 512 {
			t.Fatalf("after reslice+release: GetBuf(512) len = %d", len(nb.B))
		}
		nb.Release()
	}
}

// TestBufRetainSharesOwnership covers the delivery tree's fan-out pattern:
// one producer retains n-1 extra references and hands the same buffer to n
// consumers; the storage must return to the pool only after the last Release.
func TestBufRetainSharesOwnership(t *testing.T) {
	b := GetBuf(64)
	if b.Refs() != 1 {
		t.Fatalf("fresh Buf refs = %d, want 1", b.Refs())
	}
	b.Retain(2) // three holders in total
	if b.Refs() != 3 {
		t.Fatalf("after Retain(2): refs = %d, want 3", b.Refs())
	}
	b.B[0] = 0xEE
	b.Release()
	b.Release()
	// Two of three references dropped: the bytes must still be intact and the
	// buffer must not yet have been recycled.
	if b.Refs() != 1 || b.B[0] != 0xEE {
		t.Fatalf("after 2 releases: refs = %d, B[0] = %#x", b.Refs(), b.B[0])
	}
	b.Release()
	// The final release recycles; a fresh Get must hold exactly one reference
	// again even if it reuses the same storage.
	nb := GetBuf(64)
	if nb.Refs() != 1 {
		t.Fatalf("recycled Buf refs = %d, want 1", nb.Refs())
	}
	nb.Release()
	// Retain on nil and with non-positive counts must be no-ops.
	var nilBuf *Buf
	nilBuf.Retain(1)
	nilBuf.Release()
	ok := GetBuf(8)
	ok.Retain(0)
	ok.Retain(-3)
	if ok.Refs() != 1 {
		t.Fatalf("Retain(<=0) changed refs to %d", ok.Refs())
	}
	ok.Release()
}

func TestReadFrameBufHeadroom(t *testing.T) {
	p := &Packet{Seq: 3, Kind: KindData, Payload: []byte("abc")}
	frame, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := NewReader(bytes.NewReader(frame))
	b, err := pr.ReadFrameBuf(SessionIDSize)
	if err != nil {
		t.Fatalf("ReadFrameBuf: %v", err)
	}
	defer b.Release()
	if len(b.B) != SessionIDSize+len(frame) {
		t.Fatalf("frame buf length %d, want %d", len(b.B), SessionIDSize+len(frame))
	}
	got, _, err := Unmarshal(b.B[SessionIDSize:])
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if string(got.Payload) != "abc" || got.Seq != 3 {
		t.Fatalf("decoded %v", got)
	}
}

func TestPrependUsesFrameHeadroom(t *testing.T) {
	b := GetFrameBuf(10)
	defer b.Release()
	copy(b.B, "0123456789")
	if len(b.B) != 10 || !b.Prepend(SessionIDSize) || len(b.B) != SessionIDSize+10 || string(b.B[SessionIDSize:]) != "0123456789" {
		t.Fatalf("Prepend on a frame buffer: %q", b.B)
	}
	if b.Prepend(1) {
		t.Fatal("Prepend grew past the start of the storage")
	}
	d := GetBuf(8)
	defer d.Release()
	if d.Prepend(SessionIDSize) {
		t.Fatal("Prepend found headroom in front of a fresh buffer")
	}
	d.B = d.B[SessionIDSize:] // a datagram whose session ID was stripped
	if !d.Prepend(SessionIDSize) || len(d.B) != 8 {
		t.Fatalf("Prepend after a stripped prefix: len %d", len(d.B))
	}
}
