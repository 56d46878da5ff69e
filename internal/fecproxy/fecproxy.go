// Package fecproxy assembles the paper's FEC audio proxy (Figure 6) from the
// generic building blocks: packet-level filters that add forward error
// correction to an outgoing stream and reconstruct lost packets on the
// receiving side. Both are packet stages (filter.Stage): the relay engine
// runs them inline, and stream mode hosts them as ordinary chain filters, so
// they can be inserted into and removed from a live proxy by the
// ControlThread exactly as the paper describes.
package fecproxy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rapidware/internal/fec"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// EncoderFilter groups incoming data packets into FEC blocks and emits the
// data plus parity packets, the "FEC Encoder" stage of Figure 6.
//
// It never materializes decoded packets: data frames are grouped in the
// buffers they arrived in, re-stamped in place, and the parity frames are
// encoded directly into pooled buffers (see fec.FrameEncoder) — the
// steady-state data path performs no heap allocations.
type EncoderFilter struct {
	*filter.Stream

	params  fec.Params
	enc     *fec.FrameEncoder
	dataIn  atomic.Uint64
	dataOut atomic.Uint64
	parity  atomic.Uint64
}

// NewEncoderFilter returns an encoder filter using the given (n,k) code.
// streamID is stamped on emitted packets.
func NewEncoderFilter(name string, params fec.Params, streamID uint32) (*EncoderFilter, error) {
	coder, err := fec.CoderFor(params)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "fec-encoder" + params.String()
	}
	ef := &EncoderFilter{params: params, enc: fec.NewFrameEncoder(coder, streamID)}
	ef.Stream = filter.NewStream(name, ef)
	return ef, nil
}

// Process implements filter.Stage. Parity and control packets pass through
// untouched; only data packets are (re)grouped into FEC blocks. Control
// packets act as group barriers: a partially filled group is flushed (without
// parity) ahead of them, so an in-band marker never overtakes data the
// encoder was still holding — stream position stays meaningful across the
// stage.
func (ef *EncoderFilter) Process(b *packet.Buf, emit func(*packet.Buf)) error {
	if kind := packet.FrameKind(b.B); kind != packet.KindData {
		if kind == packet.KindControl {
			if err := ef.Flush(emit); err != nil {
				b.Release()
				return err
			}
		}
		emit(b)
		return nil
	}
	ef.dataIn.Add(1)
	full, err := ef.enc.Add(b)
	if err != nil {
		return fmt.Errorf("fecproxy: encode: %w", err)
	}
	if full {
		if err := ef.enc.Encode(emit); err != nil {
			return fmt.Errorf("fecproxy: encode: %w", err)
		}
		ef.dataOut.Add(uint64(ef.params.K))
		ef.parity.Add(uint64(ef.params.N - ef.params.K))
	}
	return nil
}

// Flush implements filter.Flusher: a partial group leaves without parity.
func (ef *EncoderFilter) Flush(emit func(*packet.Buf)) error {
	held := uint64(ef.enc.Pending())
	if err := ef.enc.Flush(emit); err != nil {
		return err
	}
	ef.dataOut.Add(held)
	return nil
}

// Params returns the encoder's code parameters.
func (ef *EncoderFilter) Params() fec.Params { return ef.params }

// Stats returns the number of data packets consumed, data packets emitted and
// parity packets emitted.
func (ef *EncoderFilter) Stats() (dataIn, dataOut, parity uint64) {
	return ef.dataIn.Load(), ef.dataOut.Load(), ef.parity.Load()
}

// Overhead returns the observed bandwidth expansion (emitted / consumed).
func (ef *EncoderFilter) Overhead() float64 {
	dataIn, dataOut, parity := ef.Stats()
	if dataIn == 0 {
		return 1
	}
	return float64(dataOut+parity) / float64(dataIn)
}

// DecoderFilter reassembles FEC blocks and reconstructs missing data packets,
// the "FEC Decoder" stage of Figure 6. Parity packets are consumed; only data
// packets (original or reconstructed) are forwarded downstream.
type DecoderFilter struct {
	*filter.PacketStage

	mu    sync.Mutex
	dec   *fec.BlockDecoder
	trace *metrics.TraceRecorder

	received      uint64
	reconstructed uint64
	forwarded     uint64
}

// NewDecoderFilter returns a decoder filter. trace may be nil; when provided,
// every forwarded packet's outcome is recorded for Figure 7-style series.
func NewDecoderFilter(name string, trace *metrics.TraceRecorder) *DecoderFilter {
	if name == "" {
		name = "fec-decoder"
	}
	df := &DecoderFilter{dec: fec.NewBlockDecoder(0), trace: trace}
	df.PacketStage = filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		df.mu.Lock()
		defer df.mu.Unlock()
		if p.Kind == packet.KindData {
			df.received++
		}
		before := df.dec.Recovered()
		outs, err := df.dec.Add(p)
		if err != nil {
			return nil, fmt.Errorf("fecproxy: decode: %w", err)
		}
		newlyRecovered := df.dec.Recovered() - before
		df.reconstructed += newlyRecovered
		// Forward only data packets; parity has served its purpose.
		forward := outs[:0]
		for _, op := range outs {
			if op.Kind == packet.KindData {
				forward = append(forward, op)
			}
		}
		df.forwarded += uint64(len(forward))
		if df.trace != nil {
			for _, op := range forward {
				// The only packets in the output that are not the input packet
				// itself are the ones the decoder reconstructed from parity.
				outcome := metrics.OutcomeReceived
				if op != p {
					outcome = metrics.OutcomeReconstructed
				}
				df.trace.Record(traceKey(op), outcome)
			}
		}
		return forward, nil
	}, nil)
	return df
}

// traceKey derives a stable per-packet key from block coordinates when
// available, falling back to the sequence number for non-FEC packets.
func traceKey(p *packet.Packet) uint64 {
	if p.IsFEC() {
		return uint64(p.Group)*uint64(p.K) + uint64(p.Index)
	}
	return p.Seq
}

// Stats returns the decoder's packet accounting: data packets received off
// the network, packets reconstructed from parity, and packets forwarded.
func (df *DecoderFilter) Stats() (received, reconstructed, forwarded uint64) {
	df.mu.Lock()
	defer df.mu.Unlock()
	return df.received, df.reconstructed, df.forwarded
}

var (
	_ filter.Stage  = (*EncoderFilter)(nil)
	_ filter.Filter = (*EncoderFilter)(nil)
	_ filter.Stage  = (*DecoderFilter)(nil)
)
