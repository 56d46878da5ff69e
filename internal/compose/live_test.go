package compose

import (
	"errors"
	"sync"
	"testing"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// capture is a Live's sink: it records the sequence numbers of the frames
// the stage slice emits.
type capture struct {
	mu   sync.Mutex
	seqs []uint64
}

func (c *capture) sink(b *packet.Buf) {
	c.mu.Lock()
	c.seqs = append(c.seqs, packet.FrameSeq(b.B))
	c.mu.Unlock()
	b.Release()
}

// newLive builds a Live over the given plan whose output lands in a capture.
func newLive(t *testing.T, mode Mode, spec string) (*Live, *capture) {
	t.Helper()
	plan, err := Parse(spec, mode)
	if err != nil {
		t.Fatal(err)
	}
	c := &capture{}
	live, err := New(Default(), Env{StreamID: 7}, mode, plan, c.sink)
	if err != nil {
		t.Fatal(err)
	}
	return live, c
}

// feed runs data frames seq from..to-1 through the live stage slice.
func feed(t *testing.T, live *Live, from, to uint64) {
	t.Helper()
	for seq := from; seq < to; seq++ {
		b := packet.GetFrameBuf(packet.HeaderSize + 16)
		frame, err := packet.AppendFrame(b.B[:0], &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: make([]byte, 16)})
		if err != nil {
			t.Fatal(err)
		}
		b.B = frame
		if err := live.Process(b); err != nil {
			t.Fatalf("Process(%d): %v", seq, err)
		}
	}
}

// expectSeqs checks the capture holds exactly 0..n-1, in order.
func (c *capture) expectSeqs(t *testing.T, n int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seqs) != n {
		t.Fatalf("captured %d frames, want %d", len(c.seqs), n)
	}
	for i, seq := range c.seqs {
		if seq != uint64(i) {
			t.Fatalf("frame %d has seq %d", i, seq)
		}
	}
}

func TestLiveAttachBuildsPlan(t *testing.T) {
	live, dst := newLive(t, ModeChain, "counting,checksum")
	if got := live.String(); got != "counting,checksum" {
		t.Fatalf("live plan = %q", got)
	}
	feed(t, live, 0, 100)
	dst.expectSeqs(t, 100)
	stats := live.StageStats()
	if len(stats) != 2 || stats[0].Kind != "counting" || !stats[0].Active {
		t.Fatalf("stage stats = %+v", stats)
	}
	want := uint64(100 * (packet.HeaderSize + 16))
	if stats[0].InBytes != want || stats[0].OutBytes != want || stats[1].OutBytes != want {
		t.Fatalf("stage IO counters = %+v, want %d each", stats, want)
	}
}

func TestLiveRecomposeReusesMatchingInstances(t *testing.T) {
	live, dst := newLive(t, ModeChain, "counting")
	feed(t, live, 0, 10)

	before := live.Instance("counting")
	if before == nil {
		t.Fatal("no counting instance")
	}
	target, err := Parse("checksum,counting,null", ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatalf("Recompose: %v", err)
	}
	if live.String() != "checksum,counting,null" {
		t.Fatalf("plan after recompose = %q", live.String())
	}
	if live.Instance("counting") != before {
		t.Fatal("matching stage did not keep its instance across recompose")
	}
	feed(t, live, 10, 20)
	// Back to a single stage: the counting instance survives again, and the
	// removed checksum stage sees nothing after the swap.
	chk := live.Instance("checksum").(*filter.ChecksumStage)
	target, err = Parse("counting", ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if live.Instance("counting") != before {
		t.Fatal("instance lost on shrink")
	}
	_, n := chk.Sum()
	feed(t, live, 20, 30)
	if _, after := chk.Sum(); after != n {
		t.Fatal("removed stage still ran frames")
	}
	if cs, ok := before.(*filter.CountingStage); !ok || cs.Frames() != 30 {
		t.Fatal("kept instance lost its counters")
	}
	dst.expectSeqs(t, 30)
}

func TestLiveRecomposeRejectsInvalidPlan(t *testing.T) {
	live, _ := newLive(t, ModeChain, "null")
	bad := Plan{Stages: []Stage{{Kind: KindFECAdapt}}}
	if err := live.Recompose(bad); err == nil {
		t.Fatal("chain-mode live accepted a marker stage")
	}
	if live.String() != "null" {
		t.Fatalf("failed recompose mutated the plan: %q", live.String())
	}
}

func TestLivePlanEditOperations(t *testing.T) {
	live, dst := newLive(t, ModeChain, "counting")
	feed(t, live, 0, 10)
	if err := live.InsertStage(Stage{Kind: "checksum"}, 1); err != nil {
		t.Fatal(err)
	}
	if live.String() != "counting,checksum" {
		t.Fatalf("after insert: %q", live.String())
	}
	feed(t, live, 10, 20)
	if err := live.MoveStage(1, 0); err != nil {
		t.Fatal(err)
	}
	if live.String() != "checksum,counting" {
		t.Fatalf("after move: %q", live.String())
	}
	if err := live.RemoveStageKind("checksum"); err != nil {
		t.Fatal(err)
	}
	feed(t, live, 20, 30)
	if err := live.RemoveStageAt(0); err != nil {
		t.Fatal(err)
	}
	if live.String() != "" {
		t.Fatalf("after removals: %q", live.String())
	}
	if err := live.RemoveStageKind("counting"); !errors.Is(err, ErrNoStage) {
		t.Fatalf("removing a missing kind = %v, want ErrNoStage", err)
	}
	feed(t, live, 30, 40)
	dst.expectSeqs(t, 40)
}

func TestLiveMarkerActivateDeactivate(t *testing.T) {
	live, dst := newLive(t, ModeBranch, "fec-adapt,counting")
	if live.Instance(KindFECAdapt) != nil {
		t.Fatal("marker active before activation")
	}
	stats := live.StageStats()
	if len(stats) != 2 || stats[0].Active || stats[0].Name != "" {
		t.Fatalf("idle marker stats = %+v", stats[0])
	}
	feed(t, live, 0, 10)
	enc := filter.NewCountingStage("managed-encoder")
	if err := live.Activate(KindFECAdapt, enc); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	feed(t, live, 10, 20)
	if live.Instance(KindFECAdapt) != enc || enc.Frames() != 10 {
		t.Fatal("activated instance not live")
	}
	if err := live.Activate(KindFECAdapt, filter.NewNullStage("second")); !errors.Is(err, ErrMarkerActive) {
		t.Fatalf("double activate = %v, want ErrMarkerActive", err)
	}
	// A recompose that keeps the marker keeps the active instance.
	target, err := Parse("counting,fec-adapt", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if live.Instance(KindFECAdapt) != enc {
		t.Fatal("active marker instance lost across recompose")
	}
	if !live.Deactivate(KindFECAdapt) {
		t.Fatal("Deactivate removed nothing")
	}
	feed(t, live, 20, 30)
	if enc.Frames() != 10 {
		t.Fatal("deactivated instance still running")
	}
	if live.Deactivate(KindFECAdapt) {
		t.Fatal("second Deactivate removed an instance, want no-op")
	}
	// Recomposing the marker away removes the splice point entirely.
	target, err = Parse("counting", ModeBranch)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Recompose(target); err != nil {
		t.Fatal(err)
	}
	if err := live.Activate(KindFECAdapt, filter.NewNullStage("x")); !errors.Is(err, ErrNoStage) {
		t.Fatalf("Activate without marker = %v, want ErrNoStage", err)
	}
	dst.expectSeqs(t, 30)
}

func TestNewFilterRegistryAdaptsComposeKinds(t *testing.T) {
	fr := NewFilterRegistry(nil, Env{StreamID: 3})
	kinds := fr.Kinds()
	for _, want := range []string{"null", "fec-encode", "fec-decode", "transcode"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("adapted registry missing %q: %v", want, kinds)
		}
	}
	for _, k := range kinds {
		if k == KindFECAdapt {
			t.Fatal("marker kind leaked into the filter registry")
		}
	}
	f, err := fr.Build(filter.Spec{Kind: "fec-encode", Params: map[string]string{"arg": "6/4"}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "fec-encoder" {
		t.Fatalf("built name = %q", f.Name())
	}
	// Legacy parameter keys still work.
	if _, err := fr.Build(filter.Spec{Kind: "fec-encode", Params: map[string]string{"nk": "6,4"}}); err != nil {
		t.Fatalf("legacy nk param: %v", err)
	}
	if _, err := fr.Build(filter.Spec{Kind: "delay", Params: map[string]string{"ms": "5"}}); err != nil {
		t.Fatalf("legacy ms param: %v", err)
	}
	if _, err := fr.Build(filter.Spec{Kind: "ratelimit", Params: map[string]string{"bps": "4096"}}); err != nil {
		t.Fatalf("legacy bps param: %v", err)
	}
	// ... as do the historical kind names and the old parameterless defaults.
	for _, spec := range []filter.Spec{
		{Kind: "fec-encoder", Params: map[string]string{"nk": "6,4"}},
		{Kind: "fec-decoder"},
		{Kind: "downsample", Params: map[string]string{"factor": "4"}},
		{Kind: "mono"},
		{Kind: "compress", Params: map[string]string{"level": "6"}},
		{Kind: "compress"},
		{Kind: "decompress"},
		{Kind: "ratelimit"}, // defaulted to 1 MiB/s pre-compose
		{Kind: "delay"},     // defaulted to 0ms pre-compose
	} {
		if _, err := fr.Build(spec); err != nil {
			t.Fatalf("legacy surface %+v: %v", spec, err)
		}
	}
	named, err := fr.Build(filter.Spec{Kind: "counting", Name: "my-counter"})
	if err != nil {
		t.Fatal(err)
	}
	if named.Name() != "my-counter" {
		t.Fatalf("spec name not honored: %q", named.Name())
	}
	if _, err := fr.Build(filter.Spec{Kind: "ratelimit", Params: map[string]string{"bps": "-1"}}); err == nil {
		t.Fatal("invalid legacy param accepted")
	}
}

// TestLiveRecomposeUnderSustainedTraffic rewrites the plan over and over
// while another goroutine runs frames through it: every frame leaves exactly
// once and in order, and a stage swapped out never sees another frame.
func TestLiveRecomposeUnderSustainedTraffic(t *testing.T) {
	live, dst := newLive(t, ModeChain, "counting")
	const frames = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		feed(t, live, 0, frames)
	}()
	specs := []string{"counting,checksum", "null,counting", "checksum", "", "counting,null,checksum"}
	for i := 0; ; i++ {
		select {
		case <-done:
			dst.expectSeqs(t, frames)
			return
		default:
		}
		gone, _ := live.Instance("checksum").(*filter.ChecksumStage)
		target, err := Parse(specs[i%len(specs)], ModeChain)
		if err != nil {
			t.Fatal(err)
		}
		if err := live.Recompose(target); err != nil {
			t.Fatal(err)
		}
		if gone == nil || live.Instance("checksum") != nil {
			continue
		}
		_, n := gone.Sum()
		for j := 0; j < 100; j++ {
			if _, m := gone.Sum(); m != n {
				t.Fatalf("checksum stage ran a frame after it was swapped out (%d -> %d bytes)", n, m)
			}
		}
	}
}
