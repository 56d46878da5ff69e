// Package filter defines the proxy filter abstractions. Stream filters are
// the paper's: active components that read a byte stream from a
// DetachableInputStream, transform it, and write the result to a
// DetachableOutputStream. They are composed into a Chain (the paper's
// ControlThread), which can insert, delete and reorder them on a live stream
// using the detachable-stream pause/reconnect protocol.
//
// Stages (stage.go) are the packet-native form every compose stage kind
// takes: Process consumes one frame and emits the results synchronously. The
// relay engine runs them inline on one worker per session; stream mode hosts
// them through the Stream adapter. The byte-stream builtins in builtin.go
// stay stream filters for the paper's raw-byte experiments.
package filter

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"rapidware/internal/stream"
)

// Errors returned by filters and chains.
var (
	// ErrAlreadyStarted is returned by Start when the filter is running.
	ErrAlreadyStarted = errors.New("filter: already started")
	// ErrNotStarted is returned by Stop when the filter never started.
	ErrNotStarted = errors.New("filter: not started")
)

// Filter is a processing stage in a proxy pipeline. Implementations own an
// input reader (the paper's DIS) and an output writer (DOS); Start launches
// the goroutine that pumps data between them, and Stop terminates it.
//
// A Filter must tolerate its streams being paused and reconnected underneath
// it: the detachable streams make this transparent to straightforward
// read/process/write loops.
type Filter interface {
	// Name returns a short, human-readable identifier used by the control
	// protocol and in chain listings.
	Name() string
	// In returns the filter's input stream endpoint.
	In() *stream.DetachableReader
	// Out returns the filter's output stream endpoint.
	Out() *stream.DetachableWriter
	// Start launches the filter's processing goroutine.
	Start() error
	// Stop terminates processing, closes the filter's streams and waits for
	// the processing goroutine to exit.
	Stop() error
	// Running reports whether the filter has been started and not stopped.
	Running() bool
}

// ProcessFunc is the body of a filter: it reads from r until EOF (or error)
// and writes transformed data to w. Returning nil or io.EOF indicates a clean
// shutdown.
type ProcessFunc func(r io.Reader, w io.Writer) error

// Base is a ready-made Filter implementation around a ProcessFunc. It owns a
// DetachableReader/DetachableWriter pair and a single processing goroutine.
// Concrete filters either embed *Base configured with their ProcessFunc or
// use New directly.
type Base struct {
	name string
	fn   ProcessFunc

	in  *stream.DetachableReader
	out *stream.DetachableWriter

	mu      sync.Mutex
	started bool
	stopped bool
	done    chan struct{}
	runErr  error
}

// New returns a filter named name whose processing loop is fn.
func New(name string, fn ProcessFunc) *Base {
	in := stream.NewDetachableReader()
	// Filter loops always come back to Read, so their inputs can carry
	// hand-off accounting: a splice that pauses this filter's inflow does
	// not complete the drain until the loop has pushed everything it was
	// handed and asked for more — the guarantee behind loss-free live
	// recomposition.
	in.TrackHandoff()
	return &Base{
		name: name,
		fn:   fn,
		in:   in,
		out:  stream.NewDetachableWriter(),
	}
}

// Name implements Filter.
func (b *Base) Name() string { return b.name }

// In implements Filter.
func (b *Base) In() *stream.DetachableReader { return b.in }

// Out implements Filter.
func (b *Base) Out() *stream.DetachableWriter { return b.out }

// Running implements Filter.
func (b *Base) Running() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started && !b.stopped
}

// Start implements Filter. The processing goroutine runs fn(in, out); when fn
// returns, the output stream is closed so downstream stages observe EOF (or
// the error fn returned).
func (b *Base) Start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return ErrAlreadyStarted
	}
	b.started = true
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		err := b.fn(b.in, b.out)
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, stream.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
			b.mu.Lock()
			b.runErr = err
			b.mu.Unlock()
			b.out.CloseWithError(fmt.Errorf("filter %q: %w", b.name, err))
			return
		}
		b.out.Close()
	}()
	return nil
}

// Stop implements Filter. It closes both stream endpoints, which unblocks the
// processing goroutine, and waits for it to exit. Stop is idempotent.
func (b *Base) Stop() error {
	b.mu.Lock()
	if !b.started {
		b.mu.Unlock()
		return ErrNotStarted
	}
	if b.stopped {
		done := b.done
		b.mu.Unlock()
		<-done
		return nil
	}
	b.stopped = true
	done := b.done
	b.mu.Unlock()

	b.in.Close()
	b.out.Close()
	<-done
	return nil
}

// Err returns the error the processing function terminated with, if any.
func (b *Base) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runErr
}

// Wait blocks until the processing goroutine has exited (after Start).
func (b *Base) Wait() {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	if done != nil {
		<-done
	}
}

var _ Filter = (*Base)(nil)
