package engine

import (
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/arq"
	"rapidware/internal/compose"
	"rapidware/internal/fec"
	"rapidware/internal/fecproxy"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// sendReport writes one feedback datagram for session id from conn.
func sendReport(t *testing.T, c *net.UDPConn, id uint32, rep packet.Report) {
	t.Helper()
	dgram, err := packet.AppendReportDatagram(nil, id, 0, 0, rep)
	if err != nil {
		t.Fatalf("AppendReportDatagram: %v", err)
	}
	if _, err := c.Write(dgram); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// waitAdapt polls the session's adaptation stats until cond holds.
func waitAdapt(t *testing.T, e *Engine, id uint32, what string, cond func(*metrics.AdaptStats) bool) *metrics.AdaptStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var last *metrics.AdaptStats
	for time.Now().Before(deadline) {
		if s := e.Session(id); s != nil {
			st := s.Stats()
			last = st.Adapt
			if last != nil && cond(last) {
				return last
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: adaptation state never converged; last %+v", what, last)
	return nil
}

// TestEngineAdaptationClosedLoop drives the full loop over the wire: a
// receiver report claiming 10% loss makes the session splice in a stronger
// code within one observation window, and a clean report returns it to the
// pure relay path.
func TestEngineAdaptationClosedLoop(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	c := dialEngine(t, e)

	// Establish the session and verify the clean-link relay path.
	sendPacket(t, c, 77, &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: []byte("warm")})
	readPacket(t, c, 2*time.Second)
	st := waitAdapt(t, e, 77, "initial", func(a *metrics.AdaptStats) bool { return true })
	if st.Active || st.N != 1 || st.K != 1 {
		t.Fatalf("clean-link adapt state = %+v, want inactive 1/1", st)
	}

	// One observation window at 10% loss: the policy ladder selects (8,4).
	sendReport(t, c, 77, packet.Report{HighestSeq: 0, Received: 90, Lost: 10, Window: 100})
	st = waitAdapt(t, e, 77, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
	if st.N != 8 || st.K != 4 {
		t.Fatalf("upgraded code = %d/%d, want 8/4", st.N, st.K)
	}
	if st.Reports != 1 || st.Receivers != 1 || st.Retunes == 0 {
		t.Fatalf("adapt counters = %+v", st)
	}

	// A full FEC group now emits data plus parity.
	for i := 1; i <= 4; i++ {
		sendPacket(t, c, 77, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	var data, parity int
	for i := 0; i < 8; i++ {
		_, p := readPacket(t, c, 2*time.Second)
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 4 || parity != 4 {
		t.Fatalf("got %d data / %d parity, want 4/4 under the (8,4) code", data, parity)
	}

	// A clean window removes the encoder again.
	sendReport(t, c, 77, packet.Report{HighestSeq: 4, Received: 100, Lost: 0, Window: 100})
	st = waitAdapt(t, e, 77, "downgrade", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.N != 1 || st.K != 1 {
		t.Fatalf("downgraded code = %d/%d, want 1/1", st.N, st.K)
	}
	if st.HighestSeq != 4 {
		t.Fatalf("HighestSeq = %d, want 4", st.HighestSeq)
	}

	// Back on the pure relay path: one in, one out, no parity.
	sendPacket(t, c, 77, &packet.Packet{Seq: 9, Kind: packet.KindData, Payload: []byte("clean")})
	_, p := readPacket(t, c, 2*time.Second)
	if p.Kind != packet.KindData || string(p.Payload) != "clean" {
		t.Fatalf("post-downgrade packet %v", p)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("unexpected extra datagram after downgrade")
	}
	if e.Stats().Feedback != 2 {
		t.Fatalf("engine feedback counter = %d, want 2", e.Stats().Feedback)
	}
}

// TestEngineAdaptsToWorstFanoutReceiver reproduces the paper's multicast
// argument at engine scale: with output fanned out to two receivers, the
// session's code follows the *worst* reporter, and only recovers when every
// receiver is clean.
func TestEngineAdaptsToWorstFanoutReceiver(t *testing.T) {
	rxA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxA.Close()
	rxB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxB.Close()

	e := newTestEngine(t, Config{
		Adapt:  true,
		Fanout: []string{rxA.LocalAddr().String(), rxB.LocalAddr().String()},
	})
	c := dialEngine(t, e)

	// One data packet reaches both receivers.
	sendPacket(t, c, 5, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("fanout")})
	for _, rx := range []*net.UDPConn{rxA, rxB} {
		buf := make([]byte, packet.MaxDatagram)
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := rx.Read(buf)
		if err != nil {
			t.Fatalf("receiver read: %v", err)
		}
		id, frame, err := packet.SplitSessionID(buf[:n])
		if err != nil || id != 5 {
			t.Fatalf("receiver got session %d (err %v)", id, err)
		}
		if _, _, err := packet.Unmarshal(frame); err != nil {
			t.Fatalf("receiver frame: %v", err)
		}
	}

	// Receiver A is clean, receiver B sees 12% loss: the worst wins.
	engAddr := e.LocalAddr().(*net.UDPAddr)
	reportFrom := func(rx *net.UDPConn, rep packet.Report) {
		dgram, err := packet.AppendReportDatagram(nil, 5, 0, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rx.WriteToUDP(dgram, engAddr); err != nil {
			t.Fatal(err)
		}
	}
	reportFrom(rxA, packet.Report{Received: 100, Lost: 0, Window: 100})
	reportFrom(rxB, packet.Report{Received: 88, Lost: 12, Window: 100})
	st := waitAdapt(t, e, 5, "worst-receiver upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
	if st.N != 8 || st.K != 4 {
		t.Fatalf("code = %d/%d, want 8/4 for the worst receiver", st.N, st.K)
	}
	if st.Receivers != 2 {
		t.Fatalf("Receivers = %d, want 2", st.Receivers)
	}

	// B recovering releases the code even though A reported earlier.
	reportFrom(rxB, packet.Report{Received: 100, Lost: 0, Window: 100})
	waitAdapt(t, e, 5, "recovery", func(a *metrics.AdaptStats) bool { return !a.Active && a.N == 1 })
}

// TestEngineFeedbackNeverOpensSessions checks that reports for unknown
// sessions are counted and dropped, not turned into sessions or chains.
func TestEngineFeedbackNeverOpensSessions(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	c := dialEngine(t, e)

	sendReport(t, c, 99, packet.Report{Received: 1, Lost: 1, Window: 2})
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Feedback == 0 {
		if time.Now().After(deadline) {
			t.Fatal("feedback counter never incremented")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := e.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d after orphan report, want 0", n)
	}
}

// TestEngineFeedbackIgnoredWithoutAdapt checks that the feedback kind is
// consumed (not relayed) even when the adaptation plane is off.
func TestEngineFeedbackIgnoredWithoutAdapt(t *testing.T) {
	e := newTestEngine(t, Config{})
	c := dialEngine(t, e)

	sendPacket(t, c, 3, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 3, packet.Report{Received: 50, Lost: 50, Window: 100})

	// The report is consumed: nothing is echoed and the session stays on the
	// plain relay path with no adaptation state.
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, packet.MaxDatagram)); err == nil {
		t.Fatal("feedback datagram was relayed")
	}
	st := e.Session(3).Stats()
	if st.Adapt != nil {
		t.Fatalf("adapt state %+v on a non-adaptive engine", st.Adapt)
	}
}

// TestEngineSweepAllExpiresStaleReceivers drives the maintenance tick with a
// fake clock: a receiver whose last report predates the staleness window is
// aged out by the tick alone — no report has to arrive to trigger it — and
// the tick applies the decay before it returns.
func TestEngineSweepAllExpiresStaleReceivers(t *testing.T) {
	const window = time.Minute
	e := newTestEngine(t, Config{Adapt: true, ReportStaleness: window})
	c := dialEngine(t, e)

	sendPacket(t, c, 55, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 55, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 55, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })

	// Inside the window a tick changes nothing.
	e.maintain(time.Now().Add(window / 2))
	if st := e.Session(55).Stats().Adapt; !st.Active || st.Receivers != 1 || st.Expired != 0 {
		t.Fatalf("tick inside the window changed the loop: %+v", st)
	}

	// Past the window nothing else reports, so only the tick can expire the
	// receiver; its apply has landed by the time maintain returns.
	e.maintain(time.Now().Add(window + time.Second))
	st := e.Session(55).Stats().Adapt
	if st.Active || st.N != 1 || st.LossRate != 0 || st.Receivers != 0 || st.Expired != 1 {
		t.Fatalf("after the window: %+v, want inactive 1/1 with the receiver expired", st)
	}
	if st.Reports != 1 {
		t.Fatalf("Reports = %d, want 1 (aging is not a report)", st.Reports)
	}

	// An aged-out loop has nothing left to expire.
	e.maintain(time.Now().Add(3 * window))
	if st := e.Session(55).Stats().Adapt; st.Expired != 1 {
		t.Fatalf("Expired = %d after an idle tick, want 1", st.Expired)
	}
}

// receiverAddr is a receiver socket's address in the canonical (unmapped)
// form the engine keys fan-out receivers by.
func receiverAddr(rx *net.UDPConn) netip.AddrPort {
	ap := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// feedReport hands one report from a fan-out receiver to the session as the
// read loop does, then runs a maintenance pass at now: the decision has been
// applied when it returns.
func feedReport(t *testing.T, e *Engine, s *Session, from netip.AddrPort, rep packet.Report, now time.Time) *metrics.AdaptStats {
	t.Helper()
	dgram, err := packet.AppendReportDatagram(nil, s.ID(), 0, 0, rep)
	if err != nil {
		t.Fatal(err)
	}
	s.handleFeedback(from, dgram[packet.SessionIDSize:])
	e.maintain(now)
	return s.Stats().Adapt
}

// lastSeen returns when a receiver's loop last took a live report (unix
// nanos; 0 once aged out).
func lastSeen(t *testing.T, s *Session, rx netip.AddrPort) int64 {
	t.Helper()
	a := s.state().adaptor
	a.mu.Lock()
	l := a.loops[rx]
	a.mu.Unlock()
	if l == nil {
		t.Fatalf("no adaptation loop for receiver %v", rx)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// TestEngineFanoutLoopsTrackWorstReceiver checks the session-level view of a
// fan-out group's receiver loops: each receiver is decided on its own
// reports, the aggregate follows the most degraded receiver, the worst
// receiver leaving the group stops pinning it, and a total-loss report pins
// the top rung at loss 1.
func TestEngineFanoutLoopsTrackWorstReceiver(t *testing.T) {
	rxA, rxB, rxC := listenReceiver(t), listenReceiver(t), listenReceiver(t)
	a, b, c := receiverAddr(rxA), receiverAddr(rxB), receiverAddr(rxC)
	e := newTestEngine(t, Config{Adapt: true, Fanout: []string{a.String(), b.String(), c.String()}})
	s := openTrunk(t, e, 21)
	now := time.Now()

	feedReport(t, e, s, a, packet.Report{Received: 98, Lost: 2, Window: 100}, now)
	feedReport(t, e, s, b, packet.Report{Received: 85, Lost: 15, Window: 100}, now)
	st := feedReport(t, e, s, a, packet.Report{Received: 99, Lost: 1, Window: 100}, now) // a improves; b is still the worst
	if !st.Active || st.LossRate != 0.15 || st.N != 8 || st.K != 4 {
		t.Fatalf("aggregate = %+v, want receiver b's 8/4 at loss 0.15", st)
	}
	if st.Receivers != 2 || st.Reports != 3 {
		t.Fatalf("Receivers=%d Reports=%d, want 2/3", st.Receivers, st.Reports)
	}
	for _, rs := range s.Stats().Receivers {
		switch rs.Receiver {
		case a.String():
			if rs.LossRate != 0.01 || rs.N != 5 || rs.Reports != 2 {
				t.Fatalf("receiver a = %+v, want its own 5/4 at loss 0.01", rs)
			}
		case b.String():
			if rs.LossRate != 0.15 || rs.N != 8 || rs.Reports != 1 {
				t.Fatalf("receiver b = %+v, want 8/4 at loss 0.15", rs)
			}
		}
	}

	// The worst receiver leaving the group releases the aggregate to the
	// next worst.
	if !e.FanoutGroup().Remove(b) {
		t.Fatal("receiver b not removed from group")
	}
	s.state().tree.reconcile()
	if st := s.Stats().Adapt; st.LossRate != 0.01 || st.N != 5 || st.Receivers != 1 {
		t.Fatalf("after b left: %+v, want receiver a's 5/4 at loss 0.01", st)
	}

	// Total loss is the largest loss a report can carry.
	st = feedReport(t, e, s, c, packet.Report{Received: 0, Lost: 100, Window: 100}, now)
	if st.LossRate != 1 || st.N != 12 || st.K != 4 || st.Receivers != 2 {
		t.Fatalf("after total loss: %+v, want 12/4 at loss 1", st)
	}
}

// TestEngineFanoutLoopsAgeOutStaleReceivers drives report aging with the
// maintenance tick's clock: a receiver that stops reporting must not pin the
// group past the staleness window, a tick inside the window ages nothing, and
// the last receiver going silent decays the session to the clean link.
func TestEngineFanoutLoopsAgeOutStaleReceivers(t *testing.T) {
	const window = time.Minute
	rxDead, rxLive := listenReceiver(t), listenReceiver(t)
	dead, live := receiverAddr(rxDead), receiverAddr(rxLive)
	e := newTestEngine(t, Config{Adapt: true, ReportStaleness: window, Fanout: []string{dead.String(), live.String()}})
	s := openTrunk(t, e, 22)

	feedReport(t, e, s, dead, packet.Report{Received: 70, Lost: 30, Window: 100}, time.Now()) // the station that will crash
	deadSeen := lastSeen(t, s, dead)
	for time.Now().UnixNano() <= deadSeen {
		time.Sleep(time.Millisecond)
	}
	st := feedReport(t, e, s, live, packet.Report{Received: 98, Lost: 2, Window: 100}, time.Now())
	liveSeen := lastSeen(t, s, live)
	if st.LossRate != 0.30 || st.N != 12 || st.Receivers != 2 {
		t.Fatalf("aggregate = %+v, want the dead receiver's 12/4 at loss 0.30", st)
	}

	// A tick whose window still covers the dead receiver's report ages
	// nothing.
	e.maintain(time.Unix(0, deadSeen).Add(window))
	if st := s.Stats().Adapt; st.N != 12 || st.Receivers != 2 || st.Expired != 0 {
		t.Fatalf("tick inside the window changed the loops: %+v", st)
	}

	// The dead receiver's report crosses the window while the live one's does
	// not: the live receiver alone drives the aggregate.
	e.maintain(time.Unix(0, deadSeen+1).Add(window))
	if st := s.Stats().Adapt; st.LossRate != 0.02 || st.N != 5 || st.Receivers != 1 || st.Expired != 1 {
		t.Fatalf("after aging: %+v, want the live receiver's 5/4 at loss 0.02 with one expired", st)
	}

	// The last receiver going silent decays the session to the clean link.
	e.maintain(time.Unix(0, liveSeen+1).Add(window))
	st = s.Stats().Adapt
	if st.Active || st.N != 1 || st.LossRate != 0 || st.Receivers != 0 || st.Expired != 2 {
		t.Fatalf("after full decay: %+v, want inactive 1/1 with both expired", st)
	}
	// A tick with nothing left to age expires nothing further.
	e.maintain(time.Unix(0, liveSeen).Add(3 * window))
	if st := s.Stats().Adapt; st.Expired != 2 {
		t.Fatalf("Expired = %d after an idle tick, want 2", st.Expired)
	}
}

// TestEngineTimerSweepsSilentReceivers is the regression test for staleness
// aging without traffic: before the timer-driven sweep, expiry only ran on
// the report path, so once every station of a session went silent — the exact
// situation aging exists for — the last report pinned its protection level
// forever.
func TestEngineTimerSweepsSilentReceivers(t *testing.T) {
	const window = 100 * time.Millisecond
	e := newTestEngine(t, Config{Adapt: true, ReportStaleness: window})
	c := dialEngine(t, e)

	sendPacket(t, c, 56, &packet.Packet{Kind: packet.KindData, Payload: []byte("x")})
	readPacket(t, c, 2*time.Second)
	sendReport(t, c, 56, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 56, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active })

	// Total silence from here on. The timer must decay the session back to
	// the clean-link path on its own.
	st := waitAdapt(t, e, 56, "silent decay", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.Expired == 0 {
		t.Fatalf("Expired = 0 after silent decay, want > 0")
	}
}

func TestEngineForwardAndFanoutAreExclusive(t *testing.T) {
	_, err := New(Config{Forward: "127.0.0.1:1", Fanout: []string{"127.0.0.1:2"}})
	if err == nil {
		t.Fatal("Forward+Fanout config accepted")
	}
}

func TestEngineAdaptRejectsStaticFECChain(t *testing.T) {
	if _, err := New(Config{Adapt: true, Chain: "counting,fec-encode=6/4"}); err == nil {
		t.Fatal("Adapt + static fec-encode chain accepted (would double-encode)")
	}
	// fec-decode under Adapt is legitimate (decode inbound, re-protect outbound).
	if _, err := New(Config{Adapt: true, Chain: "counting,fec-decode"}); err != nil {
		t.Fatalf("Adapt + fec-decode rejected: %v", err)
	}
}

// TestEngineSpoofedFeedbackIgnored checks that a report from an off-path
// socket (not the session's peer) cannot steer the session's FEC level.
func TestEngineSpoofedFeedbackIgnored(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	owner := dialEngine(t, e)
	intruder := dialEngine(t, e)

	sendPacket(t, owner, 44, &packet.Packet{Kind: packet.KindData, Payload: []byte("mine")})
	readPacket(t, owner, 2*time.Second)

	// The intruder claims total loss on the owner's session.
	sendReport(t, intruder, 44, packet.Report{Received: 0, Lost: 100, Window: 100})
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Feedback == 0 {
		if time.Now().After(deadline) {
			t.Fatal("feedback counter never incremented")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := waitAdapt(t, e, 44, "spoof", func(a *metrics.AdaptStats) bool { return true })
	if st.Active || st.Reports != 0 || st.Receivers != 0 {
		t.Fatalf("spoofed report steered the session: %+v", st)
	}

	// The legitimate peer's report still works.
	sendReport(t, owner, 44, packet.Report{Received: 90, Lost: 10, Window: 100})
	waitAdapt(t, e, 44, "owner upgrade", func(a *metrics.AdaptStats) bool { return a.Active })
}

// TestEngineFanoutRemovalUnpinsWorstReceiver checks that removing the worst
// receiver from the fan-out group releases the code on the next report.
func TestEngineFanoutRemovalUnpinsWorstReceiver(t *testing.T) {
	rxA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxA.Close()
	rxB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rxB.Close()

	e := newTestEngine(t, Config{
		Adapt:  true,
		Fanout: []string{rxA.LocalAddr().String(), rxB.LocalAddr().String()},
	})
	c := dialEngine(t, e)
	sendPacket(t, c, 6, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("x")})
	// Reports never open sessions: with several shard readers one could read
	// a report below before another has registered the session, and drop it.
	deadline := time.Now().Add(2 * time.Second)
	for e.Session(6) == nil {
		if time.Now().After(deadline) {
			t.Fatal("session 6 never opened")
		}
		time.Sleep(time.Millisecond)
	}

	engAddr := e.LocalAddr().(*net.UDPAddr)
	reportFrom := func(rx *net.UDPConn, rep packet.Report) {
		dgram, err := packet.AppendReportDatagram(nil, 6, 0, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rx.WriteToUDP(dgram, engAddr); err != nil {
			t.Fatal(err)
		}
	}
	reportFrom(rxA, packet.Report{Received: 100, Lost: 0, Window: 100})
	reportFrom(rxB, packet.Report{Received: 70, Lost: 30, Window: 100})
	waitAdapt(t, e, 6, "upgrade", func(a *metrics.AdaptStats) bool { return a.Active && a.N == 12 })

	// B leaves the group; A's next clean report must release the code even
	// though B never reported recovery.
	if !e.FanoutGroup().Remove(rxB.LocalAddr().(*net.UDPAddr).AddrPort()) {
		t.Fatal("receiver B not removed from group")
	}
	reportFrom(rxA, packet.Report{Received: 100, Lost: 0, Window: 100})
	st := waitAdapt(t, e, 6, "unpin", func(a *metrics.AdaptStats) bool { return !a.Active })
	if st.Receivers != 1 {
		t.Fatalf("Receivers = %d after removal, want 1", st.Receivers)
	}
}

// TestEngineAlwaysOnPolicyEngagesImmediately checks that a policy whose
// cleanest rung already demands FEC protects the session before any
// receiver report arrives.
func TestEngineAlwaysOnPolicyEngagesImmediately(t *testing.T) {
	policy := adapt.Policy{Levels: []adapt.Level{{LossAtLeast: 0, Params: fec.Params{K: 4, N: 6}}}}
	e := newTestEngine(t, Config{Adapt: true, AdaptPolicy: policy})
	c := dialEngine(t, e)

	// The first group of 4 data packets must already come back protected.
	for i := 0; i < 4; i++ {
		sendPacket(t, c, 12, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	var data, parity int
	for i := 0; i < 6; i++ {
		_, p := readPacket(t, c, 2*time.Second)
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 4 || parity != 2 {
		t.Fatalf("got %d data / %d parity, want 4/2 under always-on (6,4)", data, parity)
	}
	st := waitAdapt(t, e, 12, "always-on", func(a *metrics.AdaptStats) bool { return a.Active })
	if st.N != 6 || st.K != 4 {
		t.Fatalf("always-on code = %d/%d, want 6/4", st.N, st.K)
	}
}

// testPeer is the first-sender address sessions opened directly by tests pin.
var testPeer = netip.MustParseAddrPort("127.0.0.1:9")

// openTrunk opens session id as the read loop would on its first datagram
// and builds its incarnation, without sending one.
func openTrunk(t *testing.T, e *Engine, id uint32) *Session {
	t.Helper()
	s, err := e.openSession(id, testPeer)
	if err != nil {
		t.Fatalf("openSession(%d): %v", id, err)
	}
	if _, err := s.unpark(); err != nil {
		t.Fatalf("build session %d: %v", id, err)
	}
	return s
}

// applyReport feeds one report to the session's trunk loop as the read loop
// does, then runs a maintenance pass: the decision has been applied when it
// returns (a pass waits out the maintenance goroutine's own).
func applyReport(e *Engine, s *Session, rep packet.Report) *metrics.AdaptStats {
	s.state().adaptor.report(netip.AddrPort{}, rep)
	e.maintain(time.Now())
	return s.Stats().Adapt
}

// TestEngineTrunkLoopLifecycle walks a unicast trunk's loop through every
// transition of its marker: splice in, in-place retune, an unchanged rung,
// the FEC↔ARQ swaps, splice out and splice in again.
func TestEngineTrunkLoopLifecycle(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true})
	s := openTrunk(t, e, 7)
	marker := func() any { return s.Live().Instance(compose.KindFECAdapt) }
	if st := s.Stats().Adapt; st.Active || st.N != 1 || st.K != 1 || st.Retunes != 0 || liveStages(s) != 0 {
		t.Fatalf("initial state %+v (chain %d stages)", st, liveStages(s))
	}

	// 10% loss splices the adaptive encoder in at the (8,4) level.
	st := applyReport(e, s, packet.Report{Received: 90, Lost: 10, Window: 100})
	enc, ok := marker().(*fecproxy.AdaptiveEncoderFilter)
	if !ok || !st.Active || st.Mechanism != "fec" || st.N != 8 || st.K != 4 || st.Retunes != 1 || liveStages(s) != 1 {
		t.Fatalf("after 10%% loss: %+v (chain %d stages)", st, liveStages(s))
	}

	// A rung change between FEC levels retunes the running encoder in place.
	st = applyReport(e, s, packet.Report{Received: 70, Lost: 30, Window: 100})
	if marker() != enc || st.N != 12 || st.Retunes != 2 || liveStages(s) != 1 {
		t.Fatalf("after 30%% loss: %+v, encoder replaced %v", st, marker() != enc)
	}

	// The same rung again is no retune, but the loss is recorded.
	st = applyReport(e, s, packet.Report{Received: 72, Lost: 28, Window: 100})
	if st.Retunes != 2 || st.LossRate != 0.28 {
		t.Fatalf("after an unchanged rung: %+v", st)
	}

	// Low loss over a slow feedback path swaps the encoder for an ARQ history.
	st = applyReport(e, s, packet.Report{Received: 98, Lost: 2, Window: 100, RTTMillis: 200})
	if _, ok := marker().(*arq.SenderFilter); !ok || !st.Active || st.Mechanism != "arq" || st.Retunes != 3 || liveStages(s) != 1 {
		t.Fatalf("after slow low loss: %+v", st)
	}

	// Loss on a fast path swaps the history for a fresh encoder.
	st = applyReport(e, s, packet.Report{Received: 90, Lost: 10, Window: 100, RTTMillis: 20})
	if got, ok := marker().(*fecproxy.AdaptiveEncoderFilter); !ok || got == enc || st.Mechanism != "fec" || st.Retunes != 4 {
		t.Fatalf("after fast loss: %+v", st)
	}

	// A clean link splices the repair stage out.
	st = applyReport(e, s, packet.Report{Received: 100, Window: 100})
	if marker() != nil || st.Active || st.Mechanism != "none" || st.N != 1 || st.Retunes != 5 || liveStages(s) != 0 {
		t.Fatalf("after a clean link: %+v", st)
	}

	// Loss returning splices a fresh encoder in again.
	st = applyReport(e, s, packet.Report{Received: 95, Lost: 5, Window: 100})
	if !st.Active || st.N != 6 || st.Retunes != 6 || st.Reports != 7 || liveStages(s) != 1 {
		t.Fatalf("after loss returned: %+v", st)
	}
}

// TestEngineFECOnlyPolicyPrimesBeforeFirstPacket checks a ladder with no
// clean rung (its lowest level already demands FEC): the loop's synchronous
// prime splices the encoder when the session opens, before any report or
// packet arrives.
func TestEngineFECOnlyPolicyPrimesBeforeFirstPacket(t *testing.T) {
	policy := adapt.Policy{Levels: []adapt.Level{{LossAtLeast: 0.10, Params: fec.Params{K: 4, N: 8}}}}
	e := newTestEngine(t, Config{Adapt: true, AdaptPolicy: policy})
	s := openTrunk(t, e, 9)
	st := s.Stats().Adapt
	if !st.Active || st.Mechanism != "fec" || st.N != 8 || st.K != 4 || st.Retunes != 1 || liveStages(s) != 1 {
		t.Fatalf("FEC-only policy at open: %+v (chain %d stages)", st, liveStages(s))
	}
	if n := s.Counters().Packets.Load(); n != 0 {
		t.Fatalf("session carried %d packets before the check", n)
	}
}

// TestEngineAdaptRejectsInvalidPolicy checks the policy is validated once, at
// engine construction, rather than by each loop.
func TestEngineAdaptRejectsInvalidPolicy(t *testing.T) {
	bad := adapt.Policy{Levels: []adapt.Level{{LossAtLeast: 0.1, Params: fec.Params{K: 4, N: 2}}}}
	if _, err := New(Config{Adapt: true, AdaptPolicy: bad}); err == nil {
		t.Fatal("engine accepted a policy with an invalid code")
	}
}

// TestEngineTrunkLoopDormantWithoutMarker pins the recompose-versus-loop
// contract: an operator who recomposes the fec-adapt marker away sends the
// loop dormant instead of fighting the rewrite, and restoring the marker
// re-engages the decided repair without waiting for another report.
func TestEngineTrunkLoopDormantWithoutMarker(t *testing.T) {
	e := newTestEngine(t, Config{Adapt: true, Chain: "counting"})
	s := openTrunk(t, e, 8)
	if st := applyReport(e, s, packet.Report{Received: 90, Lost: 10, Window: 100}); !st.Active || liveStages(s) != 2 {
		t.Fatalf("encoder not spliced before the recompose: %+v", st)
	}

	if _, err := e.RecomposeSession(8, "", "counting"); err != nil {
		t.Fatal(err)
	}
	e.maintain(time.Now())
	if st := s.Stats().Adapt; st.Active || liveStages(s) != 1 {
		t.Fatalf("recompose kept the encoder: %+v (chain %d stages)", st, liveStages(s))
	}
	// Reports are decided and recorded but splice nothing.
	st := applyReport(e, s, packet.Report{Received: 70, Lost: 30, Window: 100})
	if st.Active || st.N != 12 || st.Retunes != 1 || liveStages(s) != 1 {
		t.Fatalf("dormant loop: %+v (chain %d stages)", st, liveStages(s))
	}

	if _, err := e.RecomposeSession(8, "", "fec-adapt,counting"); err != nil {
		t.Fatal(err)
	}
	e.maintain(time.Now())
	if st := s.Stats().Adapt; !st.Active || st.N != 12 || st.Retunes != 2 || liveStages(s) != 2 {
		t.Fatalf("loop did not resume when the marker returned: %+v (chain %d stages)", st, liveStages(s))
	}
}

// settledGoroutines waits for the goroutine count to hold still for a few
// samples (goroutines of earlier tests may still be exiting) and returns it.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 4; i++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestEngineAdaptAddsNoGoroutines pins the adaptation plane's goroutine cost
// per session at zero: 64 adaptive unicast sessions add exactly as many
// goroutines as 64 sessions on the same chain with Adapt off.
func TestEngineAdaptAddsNoGoroutines(t *testing.T) {
	const sessions = 64
	added := func(adaptOn bool) int {
		e, err := New(Config{ListenAddr: "127.0.0.1:0", Adapt: adaptOn, Chain: "counting", Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		before := settledGoroutines()
		for id := uint32(1); id <= sessions; id++ {
			openTrunk(t, e, id)
		}
		return settledGoroutines() - before
	}
	off, on := added(false), added(true)
	if on != off || off <= 0 {
		t.Fatalf("%d sessions added %d goroutines with Adapt on, %d with it off", sessions, on, off)
	}
}
