package main

import (
	"encoding/binary"
	"sync/atomic"
)

// Every datagram the benchmark generates carries a self-describing payload,
// so any receiver can check it without asking the sender:
//
//	[0]      kind (kindData, kindPrime, kindProbe, kindTail)
//	[1]      flags (flagOpen: the session was new or parked when sent)
//	[2:4]    zero
//	[4:8]    session ID the datagram was sent on
//	[8:16]   g, the datagram's index within its kind
//	[16:24]  due time, ns since the run epoch
//	[24:32]  check word: a keyed hash of the seed and bytes 0..23
//	[32:]    filler generated from the check word
//
// A relay that drops, corrupts, duplicates or misroutes a datagram is caught
// by the check word, the filler, the session ID and the per-kind bitsets.
// The frame header's own sequence number is not used for identity: FEC
// encoders restamp it.
const (
	kindData  = 0 // timed-window traffic, the deliveries the metrics are about
	kindPrime = 1 // set-up traffic: opens sessions, converges cohorts
	kindProbe = 2 // open-latency probes after the window
	kindTail  = 3 // traffic after the window that pushes held FEC groups out
	numKinds  = 4

	flagOpen = 1

	payloadHeader = 32
)

// stamp is the decoded identity of one generated payload.
type stamp struct {
	kind, flags byte
	sess        uint32
	g           uint64
	due         int64
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func checkWord(seed uint64, st stamp) uint64 {
	h := mix64(seed ^ uint64(st.kind)<<56 ^ uint64(st.flags)<<48 ^ uint64(st.sess))
	h = mix64(h ^ st.g)
	return mix64(h ^ uint64(st.due))
}

// fillPayload writes st's payload into p (len(p) >= payloadHeader).
func fillPayload(p []byte, seed uint64, st stamp) {
	p[0], p[1], p[2], p[3] = st.kind, st.flags, 0, 0
	binary.LittleEndian.PutUint32(p[4:], st.sess)
	binary.LittleEndian.PutUint64(p[8:], st.g)
	binary.LittleEndian.PutUint64(p[16:], uint64(st.due))
	c := checkWord(seed, st)
	binary.LittleEndian.PutUint64(p[24:], c)
	x := c
	rest := p[payloadHeader:]
	for len(rest) >= 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(rest, x)
		rest = rest[8:]
	}
	if len(rest) > 0 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		for i := range rest {
			rest[i] = byte(x >> (8 * i))
		}
	}
}

// parsePayload decodes and verifies a payload byte for byte; ok is false when
// any byte differs from what fillPayload would have written.
func parsePayload(p []byte, seed uint64, wantLen int) (st stamp, ok bool) {
	if len(p) != wantLen || len(p) < payloadHeader || p[0] >= numKinds || p[2] != 0 || p[3] != 0 {
		return st, false
	}
	st = stamp{
		kind:  p[0],
		flags: p[1],
		sess:  binary.LittleEndian.Uint32(p[4:]),
		g:     binary.LittleEndian.Uint64(p[8:]),
		due:   int64(binary.LittleEndian.Uint64(p[16:])),
	}
	c := checkWord(seed, st)
	if binary.LittleEndian.Uint64(p[24:]) != c {
		return st, false
	}
	x := c
	rest := p[payloadHeader:]
	for len(rest) >= 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		if binary.LittleEndian.Uint64(rest) != x {
			return st, false
		}
		rest = rest[8:]
	}
	if len(rest) > 0 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		for i := range rest {
			if rest[i] != byte(x>>(8*i)) {
				return st, false
			}
		}
	}
	return st, true
}

// bitset records which indices have been seen; safe for concurrent use.
type bitset []atomic.Uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// has reports whether i is marked.
func (b bitset) has(i uint64) bool {
	w := i / 64
	return w < uint64(len(b)) && b[w].Load()&(1<<(i%64)) != 0
}

// set marks i and reports whether it was already marked. Indices beyond the
// set's capacity report true, so an index the sender never issued counts as
// a duplicate rather than slipping through.
func (b bitset) set(i uint64) (was bool) {
	w := i / 64
	if w >= uint64(len(b)) {
		return true
	}
	m := uint64(1) << (i % 64)
	return b[w].Or(m)&m != 0
}
