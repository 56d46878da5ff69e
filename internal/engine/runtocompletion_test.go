package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rapidware/internal/arq"
	"rapidware/internal/cache"
	"rapidware/internal/compose"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

var interleaveSeed = flag.Int64("seed", 0, "seed for TestEngineRunToCompletionInterleavings (0 picks a fresh one)")

// stageLife is what the interleaving test knows about one stage instance:
// the first sequence number sent after it joined the running slice, and —
// once a control operation took it out — the first one sent after that, plus
// how many frames it had seen by then.
type stageLife struct {
	st       filter.Stage
	added    uint64
	removed  uint64 // 0 while in the slice
	atRemove uint64
}

// seen is how many frames a pass-through instance has run so far.
func (l *stageLife) seen() uint64 {
	switch st := l.st.(type) {
	case *filter.CountingStage:
		return st.Frames()
	case *filter.ChecksumStage:
		_, n := st.Sum()
		return n
	case *arq.SenderFilter:
		tracked, _, _ := st.Stats()
		return tracked
	case *cache.ReplayFilter:
		admitted, _, _ := st.Stats()
		return admitted
	}
	return 0
}

// TestEngineRunToCompletionInterleavings streams numbered datagrams through
// one session while a seeded random schedule recomposes, inserts, removes
// and moves trunk stages and parks the session. With one reader the echo
// must come back exactly once and in order, the session's books must
// balance at quiesce, a stage a control operation swapped out must never
// run another frame, and an arq history must hold every frame that ran while
// it was in the slice. Replay a failure with -seed.
func TestEngineRunToCompletionInterleavings(t *testing.T) {
	seed := *interleaveSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (replay with -seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	// Every instance the registry builds gets a unique name, so the running
	// slice's StageStats say which instances it holds.
	kinds := []string{"null", "counting", "checksum", "arq", "replay=64"}
	reg := compose.NewRegistry()
	lives := map[string]*stageLife{}
	var livesMu sync.Mutex
	for _, kind := range compose.Default().Kinds() {
		def, _ := compose.Default().Lookup(kind)
		if build := def.Build; build != nil {
			def.Build = func(env compose.Env, arg string) (filter.Stage, error) {
				livesMu.Lock()
				defer livesMu.Unlock()
				name := fmt.Sprintf("%s#%d", kind, len(lives))
				env.Name = func(string) string { return name }
				st, err := build(env, arg)
				if err == nil {
					lives[name] = &stageLife{st: st}
				}
				return st, err
			}
		}
		if err := reg.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	randStage := func() string { return kinds[rng.Intn(len(kinds))] }
	randPlan := func() string {
		parts := make([]string, rng.Intn(4))
		for i := range parts {
			parts[i] = randStage()
		}
		return strings.Join(parts, ",")
	}

	e, err := New(Config{ListenAddr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.reg = reg
	if e.trunkPlan, err = compose.ParseWith(reg, randPlan(), compose.ModeChain); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	c := dialEngine(t, e)

	const id, total, window = 9, 600, 24
	var mu sync.Mutex
	var echoed []uint64
	go func() {
		buf := make([]byte, packet.MaxDatagram)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, frame, err := packet.SplitSessionID(buf[:n]); err == nil && packet.ValidateFrame(frame) == nil {
				mu.Lock()
				echoed = append(echoed, packet.FrameSeq(frame))
				mu.Unlock()
			}
		}
	}()
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(echoed)
	}
	waitEchoes := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for received() < n {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %d of %d echoes after 10s", seed, received(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// observe records which instances the running slice holds right after a
	// control operation returned, before datagram next is sent. Instances
	// born while the session unparked on its own (the datagram after a park)
	// are dated to that datagram.
	s := (*Session)(nil)
	inSlice := map[string]bool{}
	unparkedAt := uint64(0)
	observe := func(next uint64, parkedSince uint64) {
		now := map[string]bool{}
		if live := s.Live(); live != nil {
			for _, st := range live.StageStats() {
				if st.Active {
					now[st.Name] = true
				}
			}
		}
		livesMu.Lock()
		defer livesMu.Unlock()
		for name := range inSlice {
			if l := lives[name]; !now[name] {
				l.removed, l.atRemove = next, l.seen()
			}
		}
		for name := range now {
			if !inSlice[name] {
				lives[name].added = parkedSince
			}
		}
		inSlice = now
	}

	send := func(seq uint64) {
		dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{Seq: seq, StreamID: id, Kind: packet.KindData, Payload: []byte{byte(seq)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(dgram); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	waitEchoes(1)
	if s = e.Session(id); s == nil {
		t.Fatal("session never opened")
	}
	observe(0, 0)
	ops := 0
	for seq := uint64(1); seq < total; seq++ {
		if rng.Intn(4) == 0 {
			observe(seq, unparkedAt) // date instances an unpark built
			plan := s.Live()
			n := 0
			if plan != nil {
				n = len(plan.Plan().Stages)
			}
			var err error
			switch op := rng.Intn(5); {
			case op == 0:
				_, err = e.RecomposeSession(id, "", randPlan())
			case op == 1:
				_, err = e.InsertSessionStage(id, "", randStage(), rng.Intn(n+1))
			case op == 2 && n > 0:
				_, err = e.RemoveSessionStage(id, "", strconv.Itoa(rng.Intn(n)))
			case op == 3 && n > 1:
				_, err = e.MoveSessionStage(id, "", rng.Intn(n), rng.Intn(n))
			case op == 4:
				err = e.ParkSession(id)
				unparkedAt = seq
			}
			if err != nil {
				t.Fatalf("seed %d: control op before seq %d: %v", seed, seq, err)
			}
			ops++
			observe(seq, seq)
		}
		for received() < int(seq)-window {
			time.Sleep(50 * time.Microsecond)
		}
		send(seq)
	}
	waitEchoes(total)
	observe(total, unparkedAt)
	time.Sleep(20 * time.Millisecond) // anything extra would arrive now

	mu.Lock()
	defer mu.Unlock()
	if len(echoed) != total {
		t.Fatalf("seed %d: %d echoes, want exactly %d", seed, len(echoed), total)
	}
	for i, seq := range echoed {
		if seq != uint64(i) {
			t.Fatalf("seed %d: echo %d carries seq %d (exactly-once in-order broken): %v", seed, i, seq, echoed[max(i-5, 0):min(i+5, len(echoed))])
		}
	}
	st := s.Stats()
	if in, out, drops, closeDrops := st.Packets, st.OutPackets, st.Drops, e.Stats().CloseDrops; in != out+drops+closeDrops || in != total {
		t.Fatalf("seed %d: books do not balance: in %d, out %d, drops %d, close drops %d", seed, in, out, drops, closeDrops)
	}
	livesMu.Lock()
	defer livesMu.Unlock()
	for name, l := range lives {
		if l.removed != 0 && l.seen() != l.atRemove {
			t.Fatalf("seed %d: %s ran %d frames after it was swapped out before seq %d", seed, name, l.seen()-l.atRemove, l.removed)
		}
		h, ok := l.st.(*arq.SenderFilter)
		if !ok || (l.removed == 0 && !inSlice[name]) {
			continue
		}
		// A frame still queued when its instance left the slice runs through
		// the successor; at most window+1 were in flight at any operation.
		end := uint64(total)
		if l.removed != 0 {
			end = l.removed - min(l.removed, window+1)
		}
		for seq := l.added; seq < end; seq++ {
			b := h.Frame(seq)
			if b == nil {
				t.Fatalf("seed %d: %s (in the slice for seqs %d..%d) never ran seq %d", seed, name, l.added, end-1, seq)
			}
			b.Release()
		}
	}
	t.Logf("%d control operations, %d stage instances", ops, len(lives))
}

// TestEngineFootprint pins what a session costs with run-to-completion
// stages: a live session with four counting stages adds exactly one
// goroutine and at most 64 KiB of heap, a parked one adds no goroutine, and
// each delivery cohort with stages adds exactly one goroutine.
func TestEngineFootprint(t *testing.T) {
	const sessions = 64
	e := newTestEngine(t, Config{Shards: 1, Chain: "counting,counting,counting,counting"})
	c := dialEngine(t, e)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle also empties the buffer pools
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	g0, h0 := settledGoroutines(), heap()
	for id := uint32(1); id <= sessions; id++ {
		sendPacket(t, c, id, &packet.Packet{Kind: packet.KindData, Payload: make([]byte, 64)})
		readPacket(t, c, 2*time.Second)
	}
	g1, h1 := settledGoroutines(), heap()
	if g1-g0 != sessions {
		t.Fatalf("%d live sessions added %d goroutines, want exactly one each", sessions, g1-g0)
	}
	if per := (int64(h1) - int64(h0)) / sessions; per > 64<<10 {
		t.Fatalf("a live session weighs %d B of heap, want <= 64 KiB", per)
	}
	for id := uint32(1); id <= sessions; id++ {
		if err := e.ParkSession(id); err != nil {
			t.Fatal(err)
		}
	}
	if g := settledGoroutines(); g != g0 {
		t.Fatalf("%d parked sessions left %d goroutines, want %d (none of their own)", sessions, g, g0)
	}

	// Fan-out: the trunk worker plus one worker per chain cohort.
	rx := make([]*net.UDPConn, 2)
	addrs := make([]string, len(rx))
	for i := range rx {
		var err error
		if rx[i], err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			t.Fatal(err)
		}
		defer rx[i].Close()
		addrs[i] = rx[i].LocalAddr().String()
	}
	fe := newTestEngine(t, Config{Shards: 1, Adapt: true, Fanout: addrs, Branch: "fec-adapt,counting"})
	fc := dialEngine(t, fe)
	g0 = settledGoroutines()
	sendPacket(t, fc, 3, &packet.Packet{Kind: packet.KindData, Payload: make([]byte, 64)})
	waitFor(t, "fan-out session", func() bool { return fe.Session(3) != nil && fe.Session(3).Stats().Cohorts == 1 })
	if g := settledGoroutines(); g-g0 != 2 {
		t.Fatalf("a fan-out session with one chain cohort added %d goroutines, want 2 (trunk + cohort)", g-g0)
	}
	if _, err := fe.RecomposeSession(3, addrs[1], "fec-adapt,checksum"); err != nil {
		t.Fatal(err)
	}
	if g := settledGoroutines(); g-g0 != 3 {
		t.Fatalf("a second chain cohort brought the session to %d goroutines, want 3", g-g0)
	}
}
