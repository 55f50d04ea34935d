package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// latencyBlocks is how many consecutive blocks blockQuantile cuts a run's
// latencies into (3.5 s each in a 35 s window).
const latencyBlocks = 10

// blockQuantile cuts xs, in completion order, into latencyBlocks
// consecutive blocks of equal count and returns the median of the blocks'
// q-quantiles. A burst of host interference a few seconds long lands in
// one or two blocks and barely moves the median, where it would fill the
// tail of the pooled sample. With fewer than 20 samples a block it is the
// pooled quantile. xs is not modified.
func blockQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 20*latencyBlocks {
		return quantile(append([]float64(nil), xs...), q)
	}
	per := make([]float64, latencyBlocks)
	for b := range per {
		per[b] = quantile(append([]float64(nil), xs[b*n/latencyBlocks:(b+1)*n/latencyBlocks]...), q)
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTimes reads the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// procStat is a point-in-time reading of the process counters every
// workload reports deltas of.
type procStat struct {
	at        time.Time
	user, sys time.Duration
	mallocs   uint64
	gcCPU     float64 // seconds of GC CPU (runtime/metrics)
	totalCPU  float64 // seconds of CPU the runtime accounts for
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procStat {
	s := procStat{at: time.Now()}
	s.user, s.sys = cpuTimes()
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.mallocs = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[2].Value.Float64()
	}
	return s
}

// procDelta is what happened to the process between two readings.
type procDelta struct {
	wall, user, sys time.Duration
	mallocs         uint64
	gcFraction      float64
}

func (a procStat) to(b procStat) procDelta {
	d := procDelta{
		wall:    b.at.Sub(a.at),
		user:    b.user - a.user,
		sys:     b.sys - a.sys,
		mallocs: b.mallocs - a.mallocs,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcFraction = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

func (d procDelta) cpu() time.Duration { return d.user + d.sys }

// sampler polls heap occupancy, goroutine count and an optional gauge
// (in-flight instances) on a fixed tick for the length of a window,
// keeping the peaks. runtime/metrics reads do not stop the world.
//
// The heap peak is taken per second and the window reports the median of
// those peaks: one window-wide maximum depends on where a single GC cycle
// happened to fall, the per-second peak is the heap goal the program runs
// at.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	start time.Time
	mu    sync.Mutex
	heap  []uint64 // peak HeapInuse per second of the window
	gor   int
	gauge int64
}

const sampleEvery = 20 * time.Millisecond

func startSampler(gauge func() int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		// objects + unused = the span bytes in use, MemStats.HeapInuse.
		inuse := samples[0].Value.Uint64() + samples[1].Value.Uint64()
		g := runtime.NumGoroutine()
		var v int64
		if gauge != nil {
			v = gauge()
		}
		sec := int(time.Since(s.start) / time.Second)
		s.mu.Lock()
		for len(s.heap) <= sec {
			s.heap = append(s.heap, 0)
		}
		s.heap[sec] = max(s.heap[sec], inuse)
		s.gor = max(s.gor, g)
		s.gauge = max(s.gauge, v)
		s.mu.Unlock()
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median per-second heap peak
// and the goroutine and gauge peaks.
func (s *sampler) finish() (heapBytes float64, goroutines int, gauge int64) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	peaks := make([]float64, len(s.heap))
	for i, h := range s.heap {
		peaks[i] = float64(h)
	}
	return quantile(peaks, 0.5), s.gor, s.gauge
}
