package main

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// readBufSize holds the largest datagram any workload sends.
const readBufSize = 2048

// echoLoad is the client side of the echo workloads: two client sockets (a
// session always uses the same one, so the engine pins it there), a paced
// sender owned by the caller, and one reader goroutine per socket that checks
// every echo byte for byte and times it from its due time.
type echoLoad struct {
	seed    uint64
	payload int
	dst     netip.AddrPort
	tr      *tracer

	socks   [2]*net.UDPConn
	readers sync.WaitGroup
	buf     []byte // sender scratch, used only on the pacer's thread

	sent, recv [numKinds]atomic.Uint64
	seen       [numKinds]bitset
	bad        atomic.Uint64 // corrupted or unparseable echoes
	misrouted  atomic.Uint64 // wrong session ID or wrong socket
	dups       atomic.Uint64 // a datagram echoed twice
	sendErrs   atomic.Uint64

	// sentAs records each window datagram's session, flags and due time,
	// written by the sender only, so that a missing one can be named.
	sentAs []sentAs

	mu   sync.Mutex
	lat  []int64 // kindData echo latencies, ns from due time
	open []int64 // echo latencies of datagrams flagged as opening a session
}

type sentAs struct {
	sess  uint32
	flags byte
	due   int64
}

func sockFor(sess uint32) int { return int(sess & 1) }

// newEchoLoad binds the client sockets and starts their readers. capacity
// bounds how many datagrams of each kind the run may send.
func newEchoLoad(seed uint64, payload int, capacity [numKinds]int, tr *tracer) (*echoLoad, error) {
	l := &echoLoad{seed: seed, payload: payload, tr: tr}
	// Sample buffers are allocated up front so their growth is not counted
	// as engine heap.
	l.lat = make([]int64, 0, capacity[kindData])
	l.open = make([]int64, 0, capacity[kindData]/4+capacity[kindProbe])
	l.sentAs = make([]sentAs, capacity[kindData])
	l.buf = make([]byte, packet.SessionIDSize+packet.HeaderSize+payload)
	for k := range l.seen {
		l.seen[k] = newBitset(capacity[k])
	}
	for i := range l.socks {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			l.close()
			return nil, err
		}
		_ = c.SetReadBuffer(4 << 20) // advisory; the kernel may clamp it
		l.socks[i] = c
	}
	for i := range l.socks {
		l.readers.Add(1)
		go l.read(i)
	}
	return l, nil
}

// send builds and sends one datagram. It runs on the pacer's thread.
func (l *echoLoad) send(kind, flags byte, sess uint32, g uint64, due int64) {
	// Count before the write: the echo can beat the counter otherwise.
	l.sent[kind].Add(1)
	if kind == kindData && g < uint64(len(l.sentAs)) {
		l.sentAs[g] = sentAs{sess: sess, flags: flags, due: due}
	}
	t0 := nowNs()
	l.write(kind, flags, sess, g, due)
	if l.tr.sampled(g) {
		l.tr.add("loadgen.send", t0, nowNs(), -1, uint64(kind)<<56|g)
	}
}

func (l *echoLoad) write(kind, flags byte, sess uint32, g uint64, due int64) {
	d := l.buf
	packet.PutSessionID(d, sess)
	hdr := packet.Packet{Seq: g, StreamID: sess, Kind: packet.KindData}
	_ = packet.PutFrameHeader(d[packet.SessionIDSize:], &hdr, l.payload) // fixed valid kind and size
	fillPayload(d[packet.SessionIDSize+packet.HeaderSize:], l.seed, stamp{kind: kind, flags: flags, sess: sess, g: g, due: due})
	if _, err := l.socks[sockFor(sess)].WriteToUDPAddrPort(d, l.dst); err != nil {
		l.sendErrs.Add(1)
	}
}

func (l *echoLoad) read(si int) {
	defer l.readers.Done()
	bc := netbatch.New(l.socks[si], netbatch.Options{})
	ms := make([]netbatch.Msg, netbatch.BatchSize)
	for i := range ms {
		ms[i].Buf = make([]byte, readBufSize)
	}
	lat, open := make([]int64, 0, len(ms)), make([]int64, 0, len(ms))
	for {
		t0 := nowNs()
		n, err := bc.ReadBatch(ms)
		if err != nil {
			return // socket closed: the run is over
		}
		now := nowNs()
		if l.tr != nil {
			l.tr.add("netbatch.ReadBatch", t0, now, -1, 0)
		}
		for _, m := range ms[:n] {
			l.check(si, m.Buf[:m.N], now, &lat, &open)
		}
		// Publish the batch's samples before the next blocking read, so a
		// reader waiting on an idle socket holds none back.
		l.mu.Lock()
		l.lat = append(l.lat, lat...)
		l.open = append(l.open, open...)
		l.mu.Unlock()
		lat, open = lat[:0], open[:0]
	}
}

// check verifies one echo and records its latency.
func (l *echoLoad) check(si int, d []byte, now int64, lat, open *[]int64) {
	t0 := nowNs()
	id, frame, err := packet.SplitSessionID(d)
	if err != nil || packet.ValidateFrame(frame) != nil || packet.FrameKind(frame) != packet.KindData {
		l.bad.Add(1)
		return
	}
	st, ok := parsePayload(frame[packet.HeaderSize:], l.seed, l.payload)
	if !ok {
		l.bad.Add(1)
		return
	}
	if st.sess != id || sockFor(id) != si {
		l.misrouted.Add(1)
		return
	}
	if st.g >= l.sent[st.kind].Load() {
		l.dups.Add(1)
		return
	}
	if l.seen[st.kind].set(st.g) {
		l.dups.Add(1)
		return
	}
	l.recv[st.kind].Add(1)
	d0 := now - st.due
	switch {
	case st.flags&flagOpen != 0:
		*open = append(*open, d0)
		if st.kind == kindData {
			*lat = append(*lat, d0)
		}
	case st.kind == kindData:
		*lat = append(*lat, d0)
	}
	if l.tr.sampled(st.g) {
		id := uint64(st.kind)<<56 | st.g
		root := l.tr.add("e2e.delivery", st.due, now, -1, id)
		l.tr.add("app.check", t0, nowNs(), root, id)
	}
}

// missing returns how many sent datagrams of kind have not come back.
func (l *echoLoad) missing(kind int) uint64 {
	return l.sent[kind].Load() - l.recv[kind].Load()
}

// drain waits up to timeout for every sent datagram to come back. The
// sender must be idle.
func (l *echoLoad) drain(timeoutNs int64) {
	deadline := nowNs() + timeoutNs
	for nowNs() < deadline {
		done := true
		for k := range l.sent {
			if l.missing(k) > 0 {
				done = false
			}
		}
		if done {
			return
		}
		sleepNs(1e6)
	}
}

// missingData names up to max window datagrams that never came back.
func (l *echoLoad) missingData(max int) []string {
	var out []string
	n := min(l.sent[kindData].Load(), uint64(len(l.sentAs)))
	for g := uint64(0); g < n && len(out) < max; g++ {
		if !l.seen[kindData].has(g) {
			a := l.sentAs[g]
			out = append(out, fmt.Sprintf("#%d session %d open-flag %v due at %+.1f ms into the window",
				g, a.sess, a.flags&flagOpen != 0, float64(a.due-l.sentAs[0].due)/1e6))
		}
	}
	return out
}

// failures returns the count of failed deliveries of the kinds given, and a
// line itemizing them.
func (l *echoLoad) failures(kinds ...int) (uint64, string) {
	var miss uint64
	for _, k := range kinds {
		miss += l.missing(k)
	}
	bad, mis, dup, se := l.bad.Load(), l.misrouted.Load(), l.dups.Load(), l.sendErrs.Load()
	return miss + bad + mis + dup + se, fmt.Sprintf("missing %d  corrupted %d  misrouted %d  duplicated %d  send-errors %d",
		miss, bad, mis, dup, se)
}

// close shuts the sockets and waits for the readers to merge their samples.
func (l *echoLoad) close() {
	for _, c := range l.socks {
		if c != nil {
			c.Close()
		}
	}
	l.readers.Wait()
}
