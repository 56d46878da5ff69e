package main

import (
	"runtime"
	"slices"
	"syscall"
)

// quantile returns the nearest-rank q-quantile of sorted samples (0 when
// empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// End-to-end timings are reported as the median over batches of the
// samples: latBatches for deliveries, probeBatches for opens and control
// operations.
const (
	latBatches   = 10
	probeBatches = 5
)

// dist is a sample set (ns) kept in the order it was recorded and sorted.
type dist struct {
	raw, sorted []int64
}

func newDist(samples []int64) dist {
	raw := slices.Clone(samples)
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return dist{raw: raw, sorted: sorted}
}

// steadyUs splits the samples, in the order they were recorded, into batches
// of equal size, takes the q-quantile of each, and returns the median of
// those in microseconds. One stalled second then moves one batch, not the
// figure.
func (d dist) steadyUs(q float64, batches int) float64 {
	if len(d.raw) < batches {
		return d.us(q)
	}
	per := make([]float64, 0, batches)
	size := len(d.raw) / batches
	for b := 0; b < batches; b++ {
		part := slices.Clone(d.raw[b*size : (b+1)*size])
		slices.Sort(part)
		per = append(per, float64(quantile(part, q))/1e3)
	}
	return median(per)
}

func (d dist) n() int { return len(d.sorted) }

// us returns the q-quantile in microseconds (samples are ns).
func (d dist) us(q float64) float64 { return float64(quantile(d.sorted, q)) / 1e3 }

// ms returns the q-quantile in milliseconds (samples are ns).
func (d dist) ms(q float64) float64 { return float64(quantile(d.sorted, q)) / 1e6 }

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapInuse collects garbage twice (finalizers and pool victims settle on
// the second pass) and returns the live heap's in-use bytes.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// settledHeap waits for the in-use heap to stop shrinking — stages of a
// session that just parked or closed release their buffers asynchronously —
// and returns it.
func settledHeap() int64 {
	h := heapInuse()
	for i := 0; i < 20; i++ {
		sleepNs(50e6)
		next := heapInuse()
		if next >= h-h/200 {
			return min(h, next)
		}
		h = next
	}
	return h
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuSlicer measures process CPU per delivery over consecutive one-second
// slices of a window; the median slice is the window's figure, so a second
// spent in a garbage collection or under a noisy neighbour moves one slice,
// not the result.
type cpuSlicer struct {
	next, cpu int64
	done      uint64
	delivered func() uint64
	slices    []float64
}

const cpuSlice = 1e9

func newCPUSlicer(start int64, delivered func() uint64) *cpuSlicer {
	return &cpuSlicer{next: start + cpuSlice, cpu: cpuNs(), done: delivered(), delivered: delivered}
}

// tick closes the current slice once due passes its end; it runs on the
// pacer's thread.
func (c *cpuSlicer) tick(due int64) {
	if due < c.next {
		return
	}
	c.cut()
	c.next += cpuSlice
}

func (c *cpuSlicer) cut() {
	cpu, done := cpuNs(), c.delivered()
	if done > c.done {
		c.slices = append(c.slices, float64(cpu-c.cpu)/1e3/float64(done-c.done))
	}
	c.cpu, c.done = cpu, done
}

// close ends the last slice and returns every slice's CPU µs per delivery.
func (c *cpuSlicer) close() []float64 {
	c.cut()
	return c.slices
}
