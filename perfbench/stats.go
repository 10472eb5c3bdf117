package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest percentile with at least ten samples
// beyond it: p99 once there are 1000 samples, lower with fewer, and
// never below the median. It returns the quantile level used.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memMeter measures heap use over the timed phase from outside the
// program: allocated bytes between window boundaries (the cumulative
// heap allocation counter) and the peak live heap within a window —
// the largest heap any garbage collection found live, polled every
// millisecond. Live-after-GC rather than heap-in-use keeps the figure
// independent of where in its cycle the collector happened to be.
type memMeter struct {
	samples []metrics.Sample
	peak    atomic.Uint64
	stop    chan struct{}
	done    chan struct{}

	windowAlloc uint64
	allocMB     []float64
	peakMB      []float64
}

const (
	metricAllocs   = "/gc/heap/allocs:bytes"
	metricHeapLive = "/gc/heap/live:bytes"
)

func newMemMeter() *memMeter {
	return &memMeter{samples: []metrics.Sample{{Name: metricAllocs}, {Name: metricHeapLive}}}
}

// read returns the cumulative allocated bytes and the live heap bytes.
func (m *memMeter) read(s []metrics.Sample) (allocs, live uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// poll samples the live heap until stop closes. It is run by the
// caller's fork so its lifetime is bounded by the measured work. With
// window > 0 it closes a peak window every window (workloads without
// cycles); otherwise the work closes windows with end.
func (m *memMeter) poll(stop <-chan struct{}, window time.Duration) {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricHeapLive}}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	if window > 0 {
		m.begin()
	}
	next := time.Now().Add(window)
	for {
		if window > 0 && time.Now().After(next) {
			m.end(false)
			next = next.Add(window)
		}
		_, live := m.read(s)
		for {
			cur := m.peak.Load()
			if live <= cur || m.peak.CompareAndSwap(cur, live) {
				break
			}
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// begin opens a measurement window.
func (m *memMeter) begin() {
	allocs, live := m.read(m.samples)
	m.windowAlloc = allocs
	m.peak.Store(live)
}

// end closes the window, recording its allocation and peak live heap,
// and opens the next one.
func (m *memMeter) end(countAlloc bool) {
	allocs, live := m.read(m.samples)
	peak := m.peak.Load()
	if live > peak {
		peak = live
	}
	if countAlloc {
		m.allocMB = append(m.allocMB, float64(allocs-m.windowAlloc)/(1<<20))
	}
	m.peakMB = append(m.peakMB, float64(peak)/(1<<20))
	m.windowAlloc = allocs
	m.peak.Store(live)
}
