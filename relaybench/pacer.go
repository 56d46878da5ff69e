package main

import (
	"runtime"
	"syscall"
	"time"
)

// The open-loop pacer sends on a fixed schedule whatever the relay does:
// datagram i is due at start + i*period, and its latency is timed from that
// due time, so a stall in the relay shows up as latency on every datagram
// scheduled behind it. Go timers and time.Sleep wake hundreds of
// microseconds late at these rates, so the pacer runs on its own locked OS
// thread with a 1 µs timer slack and sleeps with nanosleep; whatever
// lateness remains is recorded per datagram and reported as loadgen.late_*.

// epoch is the run's time origin; every due and arrival time is ns since it,
// read from the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace calls send(i, due) for every due time start+i*period before end. It
// appends how late each call was, in ns, to late and returns it; a nil late
// records nothing, and a caller weighing the heap passes one allocated
// before it took its baseline. send runs on the pacer's thread; a send that
// falls behind is followed by immediate catch-up sends, never by skipped
// ones.
func pace(start, end, period int64, late []int64, send func(i int, due int64)) []int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The slack only affects this thread, which is locked to this goroutine
	// and released when it unlocks. Failure just leaves the default slack.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for i := 0; ; i++ {
		due := start + int64(i)*period
		if due >= end {
			return late
		}
		if d := due - nowNs(); d > 0 {
			ts := syscall.NsecToTimespec(d)
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		if late != nil {
			late = append(late, nowNs()-due)
		}
		send(i, due)
	}
}

// sleepNs sleeps for about ns nanoseconds; for polling loops off the pacer
// thread, where Go's timer precision is enough.
func sleepNs(ns int64) { time.Sleep(time.Duration(ns)) }
