package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is a set of durations in nanoseconds. Percentiles are exact order
// statistics of the recorded values (the engine's own histograms round to
// 25 %, which is coarser than the regression bounds).
type sample []int64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct returns the p-quantile (0 < p <= 1) of a sorted sample by the
// nearest-rank rule; 0 when the sample is empty.
func (s sample) pct(p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// p50 is the median of an unsorted sample.
func (s sample) p50() int64 { return s.sorted().pct(0.5) }

// A run reads each metric off many slices of its phase and takes a value
// near the better end of them, not their median. On a quiet machine the
// slices agree within a few per cent and the two are close. On a shared host
// a busy neighbour slows the machine by a third for seconds or minutes at a
// time and speeds it up never, so the better end stays with the undisturbed
// slices, while a change to the program moves every slice alike.
//
// sliceQuantile is the rank, as a share counted from the better end, taken
// of the latency slices: each is a median of hundreds of samples, so the
// second best of 32 is safe. windowQuantile is the same for the windows of
// throughput and CPU per operation, which are means over a second and have
// true outliers (a window with the checkpoint in it, one before the standby
// starts applying), so the rank is further in.
const (
	sliceQuantile  = 1.0 / 16
	windowQuantile = 0.25
)

// steadySlices is how many slices a run's samples of one class are cut into.
const steadySlices = 32

// steadyP50 cuts each segment (one phase of one round, in the order it was
// recorded) into consecutive slices, takes each slice's p50, and returns
// the sliceQuantile of those from below. Too few samples for that give the
// plain p50.
func steadyP50(segs []sample) (p50 int64, n int) {
	var all sample
	for _, s := range segs {
		all = append(all, s...)
	}
	per := max(steadySlices/max(len(segs), 1), 1)
	if len(all) < 4*per*len(segs) {
		return all.p50(), len(all)
	}
	var p50s sample
	for _, s := range segs {
		for i := 0; i < per; i++ {
			if slice := s[i*len(s)/per : (i+1)*len(s)/per]; len(slice) > 0 {
				p50s = append(p50s, slice.p50())
			}
		}
	}
	return p50s.sorted().pct(sliceQuantile), len(all)
}

// steady is the windowQuantile of per-window figures, counted from the
// better end: from below when lower is better, from above otherwise.
func steady(v []float64, lowerIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(windowQuantile*float64(len(s)))), 1)
	if lowerIsBetter {
		return s[rank-1]
	}
	return s[len(s)-rank]
}

// tailPct is the highest percentile worth reporting for n samples: p99, or
// lower when fewer than ten samples would lie beyond it.
func tailPct(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// median of a small slice of float64s; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB; it is the same figure as VmHWM in /proc/self/status).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// sleepUntil blocks until t without spinning. Go's time.Sleep wakes on a
// 1 ms grid on Linux (the netpoller's timeout resolution), which at 1,500
// requests/s per connection would itself be most of the latency measured
// from the due time; nanosleep is good to roughly 0.1 ms and costs no CPU.
func sleepUntil(t time.Time) {
	for {
		rem := time.Until(t)
		if rem <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(rem.Nanoseconds())
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the remainder
	}
}

// pause is sleepUntil for a duration.
func pause(d time.Duration) { sleepUntil(time.Now().Add(d)) }
