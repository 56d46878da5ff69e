package main

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// The fan-out receivers share one wildcard-bound socket. Each receiver owns
// its own 127.0.0.x address on the socket's port: IP_PKTINFO on receive names
// the address a datagram was sent to (which receiver it is for), and
// IP_PKTINFO on send sets the source address of that receiver's reports and
// NACKs, which the engine checks against its fan-out group.

// enablePktinfo asks the kernel for destination addresses on receive.
func enablePktinfo(c *net.UDPConn) error {
	raw, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1)
	}); err != nil {
		return err
	}
	return serr
}

// pktinfoDst returns the header destination address carried by an
// IP_PKTINFO control message in oob.
func pktinfoDst(oob []byte) (netip.Addr, bool) {
	for len(oob) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(oob) {
			return netip.Addr{}, false
		}
		if h.Level == syscall.IPPROTO_IP && h.Type == syscall.IP_PKTINFO && l >= syscall.CmsgLen(syscall.SizeofInet4Pktinfo) {
			info := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
			return netip.AddrFrom4(info.Addr), true
		}
		oob = oob[min(len(oob), syscall.CmsgSpace(l-syscall.CmsgLen(0))):]
	}
	return netip.Addr{}, false
}

// pktinfoSrc builds the control message that sends a datagram from src.
func pktinfoSrc(src netip.Addr) []byte {
	b := make([]byte, syscall.CmsgSpace(syscall.SizeofInet4Pktinfo))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = syscall.IPPROTO_IP, syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
	info := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&b[syscall.CmsgLen(0)]))
	info.Spec_dst = src.As4()
	return b
}

// receiverAddr is the loopback address of fan-out receiver i.
func receiverAddr(i int, port uint16) netip.AddrPort {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], 127<<24|uint32(10+i))
	return netip.AddrPortFrom(netip.AddrFrom4(a), port)
}

// receiverIndex inverts receiverAddr.
func receiverIndex(a netip.Addr) int {
	b := a.As4()
	return int(binary.BigEndian.Uint32(b[:])) - (127<<24 | 10)
}

// pktBatch reads up to pktBatchSize datagrams per recvmmsg call together
// with their IP_PKTINFO destination addresses, parking on the runtime's
// netpoller when the socket is empty. netbatch cannot serve here: its
// messages carry the source address, not the control data.
type pktBatch struct {
	rc   syscall.RawConn
	hdrs [pktBatchSize]mmsghdr
	iovs [pktBatchSize]syscall.Iovec
	bufs [pktBatchSize][]byte
	ctrl [pktBatchSize][64]byte
	n    int
	got  int
	err  error
	fn   func(fd uintptr) bool
}

const pktBatchSize = 32

// mmsghdr is struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

func newPktBatch(c *net.UDPConn) (*pktBatch, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &pktBatch{rc: rc}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, readBufSize)
	}
	b.fn = b.recvmmsg
	return b, nil
}

func (b *pktBatch) recvmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(pktBatchSize), syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.got = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			b.err = errno
			return true
		}
	}
}

// read blocks for at least one datagram and returns how many arrived;
// datagram i is b.bufs[i][:b.hdrs[i].len], sent to b.dst(i).
func (b *pktBatch) read() (int, error) {
	for i := range b.hdrs {
		b.iovs[i] = syscall.Iovec{Base: &b.bufs[i][0]}
		b.iovs[i].SetLen(readBufSize)
		b.hdrs[i] = mmsghdr{}
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
		b.hdrs[i].hdr.Control = &b.ctrl[i][0]
		b.hdrs[i].hdr.SetControllen(len(b.ctrl[i]))
	}
	b.got, b.err = 0, nil
	if err := b.rc.Read(b.fn); err != nil {
		return 0, err
	}
	return b.got, b.err
}

func (b *pktBatch) datagram(i int) []byte { return b.bufs[i][:b.hdrs[i].len] }

func (b *pktBatch) dst(i int) (netip.Addr, bool) {
	return pktinfoDst(b.ctrl[i][:b.hdrs[i].hdr.Controllen])
}
