package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
)

// tracer keeps spans in memory and writes them out once the run is over.
// Spans are recorded by the benchmark around its own calls into each layer's
// public functions (socket writes and reads, payload checks, FEC decodes,
// control operations, stats snapshots); the engine itself is not
// instrumented. A nil *tracer records nothing, which is how untraced rungs
// run.
type tracer struct {
	mu    sync.Mutex
	rung  string
	spans []span
	every uint64 // datagram-path spans are kept for one datagram in every
}

// span is one timed call. id ties the spans of one datagram together (its
// kind<<56 | g, or 0 for spans that belong to no datagram); parent indexes
// the enclosing span in the tracer's list, -1 for a root.
type span struct {
	name       string
	rung       string
	start, end int64
	parent     int32
	id         uint64
}

const spanCap = 1 << 20

func newTracer(every uint64) *tracer {
	return &tracer{spans: make([]span, 0, 1<<16), every: every}
}

// sampled reports whether datagram g's data-path spans are kept.
func (t *tracer) sampled(g uint64) bool {
	return t != nil && g%t.every == 0
}

// add records one span and returns its index (-1 when not recorded).
func (t *tracer) add(name string, start, end int64, parent int32, id uint64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanCap {
		return -1
	}
	t.spans = append(t.spans, span{name: name, rung: t.rung, start: start, end: end, parent: parent, id: id})
	return int32(len(t.spans) - 1)
}

// setRung labels the spans recorded from now on.
func (t *tracer) setRung(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rung = name
	t.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"i":%d,"rung":%q,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":%d}`+"\n",
			i, s.rung, s.name, s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
