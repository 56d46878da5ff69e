package fec

import (
	"encoding/binary"
	"fmt"

	"rapidware/internal/packet"
)

// FrameEncoder is BlockEncoder's allocation-free sibling for the proxy data
// path: it batches marshaled data frames (pooled packet.Bufs straight off a
// packet.Reader) into FEC groups and emits complete wire frames — the k held
// data frames with their block coordinates stamped into their headers in
// place, followed by n-k parity frames built in pooled buffers — without ever
// materializing packet structs or copying payloads it does not have to. All
// share staging and parity buffers come from the packet buffer pool, so a
// steady-state encode touches the allocator not at all. FrameEncoder is not
// safe for concurrent use; the encoder stages own one each.
type FrameEncoder struct {
	coder    *Coder
	streamID uint32
	group    uint32
	seq      uint64
	pending  []*packet.Buf // held data frames, len < k between Encode calls

	// Reused scratch for Encode: share views and their pooled backing for the
	// sources, plus the pooled frame buffers the parity shares are encoded
	// directly into.
	sources [][]byte
	staging []*packet.Buf
	parity  [][]byte
	pbufs   []*packet.Buf
}

// NewFrameEncoder returns a frame-level block encoder using the given coder.
// streamID is stamped on every emitted frame.
func NewFrameEncoder(coder *Coder, streamID uint32) *FrameEncoder {
	k, n := coder.Params().K, coder.Params().N
	return &FrameEncoder{
		coder:    coder,
		streamID: streamID,
		pending:  make([]*packet.Buf, 0, k),
		sources:  make([][]byte, k),
		staging:  make([]*packet.Buf, k),
		parity:   make([][]byte, n-k),
		pbufs:    make([]*packet.Buf, n-k),
	}
}

// Params returns the encoder's code parameters.
func (e *FrameEncoder) Params() Params { return e.coder.Params() }

// Pending returns the number of data frames waiting for a full group.
func (e *FrameEncoder) Pending() int { return len(e.pending) }

// Add appends one marshaled data frame to the current group, taking ownership
// of b (it is released when the group is emitted or discarded). It reports
// whether the group is now full, in which case the caller must invoke Encode
// before the next Add.
func (e *FrameEncoder) Add(b *packet.Buf) (full bool, err error) {
	plen := len(b.B) - packet.HeaderSize
	if plen <= 0 {
		b.Release()
		return false, fmt.Errorf("%w: empty payload", ErrShareSize)
	}
	if plen+shareHeaderSize > packet.MaxPayload {
		b.Release()
		return false, fmt.Errorf("%w: payload too large", ErrShareSize)
	}
	e.pending = append(e.pending, b)
	return len(e.pending) == e.coder.Params().K, nil
}

// Encode emits the full group: each held data frame is re-stamped in place
// with its sequence number and block coordinates, the n-k parity frames are
// computed into pooled frame buffers (with session-ID headroom, see
// packet.GetFrameBuf), and every complete frame is handed to emit in index
// order. emit takes ownership of each buffer; on error the frames not yet
// emitted are released.
func (e *FrameEncoder) Encode(emit func(*packet.Buf)) error {
	params := e.coder.Params()
	k, n := params.K, params.N
	if len(e.pending) != k {
		return fmt.Errorf("%w: group has %d of %d frames", ErrShareSize, len(e.pending), k)
	}
	defer e.Discard()
	// Build equal-size shares: 2-byte length prefix + payload, zero padded to
	// the largest payload in the group.
	maxLen := 0
	for _, b := range e.pending {
		if plen := len(b.B) - packet.HeaderSize; plen > maxLen {
			maxLen = plen
		}
	}
	shareSize := maxLen + shareHeaderSize
	for i, b := range e.pending {
		sb := packet.GetBuf(shareSize)
		clear(sb.B)
		plen := len(b.B) - packet.HeaderSize
		binary.BigEndian.PutUint16(sb.B, uint16(plen))
		copy(sb.B[shareHeaderSize:], b.B[packet.HeaderSize:])
		e.staging[i], e.sources[i] = sb, sb.B
	}
	for i := range e.pbufs {
		pb := packet.GetFrameBuf(packet.HeaderSize + shareSize)
		e.pbufs[i], e.parity[i] = pb, pb.B[packet.HeaderSize:]
	}
	err := e.coder.EncodeParityInto(e.sources, e.parity)
	for i, sb := range e.staging {
		sb.Release()
		e.staging[i], e.sources[i] = nil, nil
	}
	if err != nil {
		e.releaseParity()
		return fmt.Errorf("fec: encode group %d: %w", e.group, err)
	}
	for i, b := range e.pending {
		hdr := packet.Packet{
			Seq: e.seq, StreamID: e.streamID, Kind: packet.KindData,
			Group: e.group, Index: uint8(i), K: uint8(k), N: uint8(n),
		}
		if err := packet.PutFrameHeader(b.B, &hdr, len(b.B)-packet.HeaderSize); err != nil {
			e.releaseParity()
			return err
		}
		e.seq++
		e.pending[i] = nil
		emit(b)
	}
	for i, pb := range e.pbufs {
		hdr := packet.Packet{
			Seq: e.seq, StreamID: e.streamID, Kind: packet.KindParity,
			Group: e.group, Index: uint8(k + i), K: uint8(k), N: uint8(n),
		}
		if err := packet.PutFrameHeader(pb.B, &hdr, shareSize); err != nil {
			e.releaseParity()
			return err
		}
		e.seq++
		e.pbufs[i], e.parity[i] = nil, nil
		emit(pb)
	}
	e.group++
	return nil
}

// Flush emits a partially filled group as plain stamped data frames without
// parity (parity requires a full group), keeping the stream lossless when it
// ends — or hits an in-band barrier — mid-group. emit takes ownership of each
// buffer.
func (e *FrameEncoder) Flush(emit func(*packet.Buf)) error {
	if len(e.pending) == 0 {
		return nil
	}
	params := e.coder.Params()
	defer e.Discard()
	for i, b := range e.pending {
		hdr := packet.Packet{
			Seq: e.seq, StreamID: e.streamID, Kind: packet.KindData,
			Group: e.group, Index: uint8(i), K: uint8(params.K), N: uint8(params.N),
		}
		if err := packet.PutFrameHeader(b.B, &hdr, len(b.B)-packet.HeaderSize); err != nil {
			return err
		}
		e.seq++
		e.pending[i] = nil
		emit(b)
	}
	e.group++
	return nil
}

// Discard releases any held frames without emitting them, the shutdown path.
func (e *FrameEncoder) Discard() {
	for i, b := range e.pending {
		b.Release() // nil for frames already emitted
		e.pending[i] = nil
	}
	e.pending = e.pending[:0]
}

func (e *FrameEncoder) releaseParity() {
	for i, pb := range e.pbufs {
		if pb != nil {
			pb.Release()
			e.pbufs[i], e.parity[i] = nil, nil
		}
	}
}
