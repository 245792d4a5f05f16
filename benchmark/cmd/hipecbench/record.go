package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Latency classes. Every workload defines two, so that a change that buys
// one at the cost of the other shows in the same run.
const (
	classA = 0
	classB = 1
)

// sliceLen is short against the seconds over which the host changes pace,
// so that the echo on either side of a slice saw the host the slice saw.
const (
	sliceLen        = 250 * time.Millisecond
	slicesPerSecond = int(time.Second / sliceLen)
)

// sliceRec is one generator's record of one slice: nothing in it is shared
// while the generator runs, so recording needs no atomics.
type sliceRec struct {
	issued int64 // page accesses sent
	failed int64
	hist   [2]hist
}

// add records one completed operation of nops page accesses.
func (r *sliceRec) add(class int, lat time.Duration, nops int, ok bool) {
	r.issued += int64(nops)
	if !ok {
		r.failed += int64(nops)
	}
	r.hist[class].add(int64(lat))
}

// generator is one closed-loop client: it issues operations into rec until
// stop is set, each only after the previous one completed. It is called once
// per slice and keeps its stream from one call to the next.
type generator func(rec *sliceRec, stop *atomic.Bool)

// slice is one measured stretch of the generators running together.
type slice struct {
	recs           []*sliceRec // one per generator
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcs            uint32
	gcPause        time.Duration
	speed          float64 // of the host while the slice ran; see echo.go
}

func (s *slice) ops() (n float64) {
	for _, r := range s.recs {
		n += float64(r.issued)
	}
	return n
}

// class merges the generators' samples of one latency class.
func (s *slice) class(class int) *hist {
	var h hist
	for _, r := range s.recs {
		h.merge(&r.hist[class])
	}
	return &h
}

// runSlice runs the generators together for d; each then finishes the
// operation it is in, and the slice lasts until the last has.
func runSlice(gens []generator, d time.Duration) slice {
	s := slice{recs: make([]*sliceRec, len(gens))}
	for i := range s.recs {
		s.recs[i] = new(sliceRec)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu := time.Now(), cpuTime()
	for i, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g(s.recs[i], &stop)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	s.wall, s.cpu = time.Since(start), cpuTime()-cpu
	runtime.ReadMemStats(&m1)
	s.mallocs, s.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	s.gcs, s.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
	return s
}

// window is what one measured run of a set of generators yields.
type window struct {
	warm   slice // counted as issued, measured as nothing
	slices []slice
	// timerPaced: the workload waits on timers, which do not slow down with
	// the host, so its times are reported as measured; only class A, which
	// does not wait on one, is scaled by the host's speed.
	timerPaced bool
}

// measure runs the generators through a warm-up and then seconds of slices,
// with the echo before, between and after them.
func measure(gens []generator, e *echo, warmup time.Duration, seconds int) (*window, error) {
	w := &window{warm: runSlice(gens, warmup), slices: make([]slice, seconds*slicesPerSecond)}
	before, err := e.rtt()
	if err != nil {
		return nil, err
	}
	for i := range w.slices {
		w.slices[i] = runSlice(gens, sliceLen)
		after, err := e.rtt()
		if err != nil {
			return nil, err
		}
		w.slices[i].speed = hostSpeed(before, after)
		before = after
	}
	return w, nil
}

func (w *window) issued() int64 {
	n := w.warm.ops()
	for i := range w.slices {
		n += w.slices[i].ops()
	}
	return int64(n)
}

func (w *window) failed() (n int64) {
	for _, s := range append([]slice{w.warm}, w.slices...) {
		for _, r := range s.recs {
			n += r.failed
		}
	}
	return n
}

// sliceEstimate is the shape of every timed metric: a statistic of each
// slice, then the median of those over the slices. A slow stretch moves a
// few slices, not the result.
func (w *window) sliceEstimate(stat func(*slice) float64) float64 {
	var per []float64
	for i := range w.slices {
		if v := stat(&w.slices[i]); !math.IsNaN(v) {
			per = append(per, v)
		}
	}
	return median(per)
}

// latMid is the end-to-end latency statistic: the mean of the middle 80 %.
func latMid(h *hist) float64 { return h.midMean(0.1, 0.9) }

// wholePercentile is the q-quantile of all samples of a class in the
// window, as measured. The tails it is used for are the scheduler's more
// than the program's, which is why they are per-layer metrics only.
func (w *window) wholePercentile(class int, q float64) float64 {
	var h hist
	for i := range w.slices {
		h.merge(w.slices[i].class(class))
	}
	return h.quantile(q)
}

// endToEnd computes the run's metrics but for setup_s and peak_rss_mb, which
// are the caller's. Times are scaled to the nominal host; raw returns them
// as the clock read them.
func (w *window) endToEnd() (scaled, raw map[string]float64) {
	stats := map[string]func(s *slice, speed float64) float64{
		"ops_per_s":     func(s *slice, speed float64) float64 { return s.ops() / s.wall.Seconds() / speed },
		"cpu_us_per_op": func(s *slice, speed float64) float64 { return float64(s.cpu) / 1e3 / s.ops() * speed },
		"lat_mid_us":    func(s *slice, speed float64) float64 { return latMid(s.class(classA)) / 1e3 * speed },
		"lat2_mid_us":   func(s *slice, speed float64) float64 { return latMid(s.class(classB)) / 1e3 * speed },
	}
	scaled, raw = make(map[string]float64), make(map[string]float64)
	for name, stat := range stats {
		raw[name] = w.sliceEstimate(func(s *slice) float64 { return stat(s, 1) })
		scaled[name] = raw[name]
		if !w.timerPaced || name == "lat_mid_us" {
			scaled[name] = w.sliceEstimate(func(s *slice) float64 { return stat(s, s.speed) })
		}
	}
	var ops, mallocs, bytes float64
	for i := range w.slices {
		s := &w.slices[i]
		ops, mallocs, bytes = ops+s.ops(), mallocs+float64(s.mallocs), bytes+float64(s.bytes)
	}
	ops = math.Max(ops, 1)
	scaled["allocs_per_op"] = mallocs / ops
	scaled["alloc_bytes_per_op"] = bytes / ops
	return scaled, raw
}
