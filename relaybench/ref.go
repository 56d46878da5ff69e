package main

import (
	"net"
	"net/netip"
	"sync"

	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// rawRelay is the host reference rung: one socket, one goroutine, batched
// netbatch reads and writes, and no engine. It echoes every datagram to its
// sender or, given fan-out addresses, copies every data datagram to each of
// them, so the benchmark's generator and receivers can drive it exactly as
// they drive the engine. What the engine adds on top of this is its own cost.
type rawRelay struct {
	conn *net.UDPConn
	fan  []netip.AddrPort
	done sync.WaitGroup
}

func startRawRelay(fan []netip.AddrPort) (*rawRelay, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(4 << 20)  // advisory, as in the engine
	_ = conn.SetWriteBuffer(4 << 20) // advisory, as in the engine
	r := &rawRelay{conn: conn, fan: fan}
	r.done.Add(1)
	go r.loop()
	return r, nil
}

func (r *rawRelay) addr() netip.AddrPort { return r.conn.LocalAddr().(*net.UDPAddr).AddrPort() }

func (r *rawRelay) loop() {
	defer r.done.Done()
	bc := netbatch.New(r.conn, netbatch.Options{})
	in := make([]netbatch.Msg, netbatch.BatchSize)
	for i := range in {
		in[i].Buf = make([]byte, readBufSize)
	}
	out := make([]netbatch.Msg, 0, netbatch.BatchSize*max(1, len(r.fan)))
	for {
		n, err := bc.ReadBatch(in)
		if err != nil {
			return // socket closed
		}
		out = out[:0]
		for _, m := range in[:n] {
			d := m.Buf[:m.N]
			if r.fan == nil {
				out = append(out, netbatch.Msg{Buf: d, Addr: m.Addr})
				continue
			}
			if len(d) < packet.SessionIDSize+packet.HeaderSize || packet.FrameKind(d[packet.SessionIDSize:]) != packet.KindData {
				continue // receiver reports and NACKs have no meaning here
			}
			for _, a := range r.fan {
				out = append(out, netbatch.Msg{Buf: d, Addr: a})
			}
		}
		for len(out) > 0 {
			k, err := bc.WriteBatch(out)
			if err != nil {
				k++ // out[k] failed and is dropped, UDP-style
			}
			out = out[min(k, len(out)):]
		}
	}
}

func (r *rawRelay) close() {
	r.conn.Close()
	r.done.Wait()
}
