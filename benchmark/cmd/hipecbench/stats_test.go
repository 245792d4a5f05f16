package main

import (
	"math"
	"testing"
	"time"
)

func TestHistBucketsInvert(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 1000, 4095, 4096, 17_000, 1 << 20, 3_999_999, 1 << 40} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d is outside its bucket [%g, %g)", v, lo, hi)
		}
		if v >= histSub && (hi-lo)/lo > 1.0/histSub {
			t.Errorf("bucket of %d is %g wide, more than 1/%d of its value", v, hi-lo, histSub)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.005 {
			t.Errorf("quantile(%g) = %g, want %g within 0.5 %%", q, got, want)
		}
	}
	// One sample in a wide bucket must not come back as the bucket's edge.
	var one hist
	one.add(1_000_000)
	lo, hi := bucketBounds(bucketOf(1_000_000))
	if got := one.quantile(0.5); got <= lo || got >= hi {
		t.Errorf("median of a single sample = %g, want strictly inside (%g, %g)", got, lo, hi)
	}
}

// The spread of a metric is judged with Python's statistics.quantiles(n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7, 8, 9}, 7, 8, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// oneSlice is a slice of one generator: n operations of class A at latA and n
// of class B at latB, on a host of the given speed.
func oneSlice(n int, latA, latB time.Duration, speed float64) slice {
	rec := new(sliceRec)
	for i := 0; i < n; i++ {
		rec.add(classA, latA, 1, true)
		rec.add(classB, latB, 1, true)
	}
	return slice{recs: []*sliceRec{rec}, wall: sliceLen, cpu: sliceLen / 2, speed: speed}
}

// A window of three slices with one slow one: the slice estimator reports
// the ordinary slices, a percentile over the whole window the slow one.
func TestSliceEstimateIgnoresOneSlowSlice(t *testing.T) {
	w := &window{slices: []slice{
		oneSlice(100, 20*time.Microsecond, time.Microsecond, 1),
		oneSlice(300, 4*time.Millisecond, time.Microsecond, 1),
		oneSlice(100, 22*time.Microsecond, time.Microsecond, 1),
	}}
	w.slices[1].recs[0].hist[classB] = hist{} // no class-B sample in the slow slice
	scaled, _ := w.endToEnd()
	if got := scaled["lat_mid_us"]; got < 21 || got > 23 {
		t.Errorf("lat_mid_us = %g, want the median slice's 22 us", got)
	}
	if got := w.wholePercentile(classA, 0.5); got < 3_900_000 {
		t.Errorf("whole-window p50 = %g ns, want the slow slice's 4 ms", got)
	}
	if got := scaled["lat2_mid_us"]; got < 0.99 || got > 1.01 {
		t.Errorf("lat2_mid_us = %g, want 1 us from the two slices that have samples", got)
	}
	if got := (&window{}).sliceEstimate(func(*slice) float64 { return math.NaN() }); !math.IsNaN(got) {
		t.Errorf("an estimate over no samples = %g, want NaN", got)
	}
}

// The same work on a host half as fast takes twice as long; scaled to the
// nominal host it reads the same, and a timer-paced workload keeps all but
// class A as the clock read them.
func TestEndToEndScalesByTheHostsSpeed(t *testing.T) {
	w := &window{slices: []slice{
		oneSlice(1000, 20*time.Microsecond, 50*time.Microsecond, 1),
		oneSlice(500, 40*time.Microsecond, 100*time.Microsecond, 0.5),
		oneSlice(500, 40*time.Microsecond, 100*time.Microsecond, 0.5),
	}}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	scaled, raw := w.endToEnd()
	near("scaled ops_per_s", scaled["ops_per_s"], 2000/sliceLen.Seconds())
	near("raw ops_per_s", raw["ops_per_s"], 1000/sliceLen.Seconds())
	near("scaled lat_mid_us", scaled["lat_mid_us"], 20)
	near("raw lat_mid_us", raw["lat_mid_us"], 40)
	near("scaled lat2_mid_us", scaled["lat2_mid_us"], 50)
	near("scaled cpu_us_per_op", scaled["cpu_us_per_op"], float64(sliceLen/2)/1e3/2000)

	w.timerPaced = true
	scaled, _ = w.endToEnd()
	near("timer-paced ops_per_s", scaled["ops_per_s"], 1000/sliceLen.Seconds())
	near("timer-paced lat2_mid_us", scaled["lat2_mid_us"], 100)
	near("timer-paced cpu_us_per_op", scaled["cpu_us_per_op"], float64(sliceLen/2)/1e3/1000)
	near("timer-paced lat_mid_us", scaled["lat_mid_us"], 20)
}

// Two modes of nearly equal weight: the median jumps from one to the other
// when a few samples change sides, the mid-mean barely moves.
func TestMidMeanIsSmoothWhereTheMedianJumps(t *testing.T) {
	mix := func(fast int) *hist {
		var h hist
		for i := 0; i < 1000; i++ {
			if i < fast {
				h.add(15_000)
			} else {
				h.add(50_000)
			}
		}
		return &h
	}
	a, b := mix(510), mix(490)
	if jump := b.quantile(0.5) / a.quantile(0.5); jump < 3 {
		t.Fatalf("medians %g and %g: the test wants a distribution whose median jumps", a.quantile(0.5), b.quantile(0.5))
	}
	ma, mb := a.midMean(0.1, 0.9), b.midMean(0.1, 0.9)
	if math.Abs(mb-ma)/ma > 0.04 {
		t.Errorf("mid-mean moved from %g to %g for a 2 %% shift between the modes", ma, mb)
	}
	want := (410*15_000 + 390*50_000) / 800.0
	if math.Abs(ma-want)/want > 0.01 {
		t.Errorf("mid-mean = %g, want %g", ma, want)
	}
	// On one mode it is that mode.
	if got := mix(1000).midMean(0.1, 0.9); math.Abs(got-15_000)/15_000 > 0.01 {
		t.Errorf("mid-mean of a constant = %g", got)
	}
}

func TestWindowCountsTheWarmUpAsIssuedOnly(t *testing.T) {
	warm := oneSlice(10, time.Microsecond, time.Microsecond, 0)
	warm.recs[0].add(classA, time.Microsecond, 5, false)
	w := &window{warm: warm, slices: []slice{oneSlice(100, time.Microsecond, time.Microsecond, 1)}}
	if w.issued() != 20+5+200 || w.failed() != 5 {
		t.Errorf("issued %d failed %d, want 225 and 5", w.issued(), w.failed())
	}
	scaled, _ := w.endToEnd()
	if got, want := scaled["ops_per_s"], 200/sliceLen.Seconds(); math.Abs(got-want) > 1e-6 {
		t.Errorf("ops_per_s = %g, want the window's %g", got, want)
	}
}

// The echo answers, and a host that takes twice as long over it has half
// the speed.
func TestEchoMeasuresTheHostsSpeed(t *testing.T) {
	e, err := newEcho()
	if err != nil {
		t.Fatal(err)
	}
	rtt, err := e.rtt()
	if err != nil || rtt <= 0 {
		t.Fatalf("round trip %v, %v", rtt, err)
	}
	e.close()
	if _, err := e.rtt(); err == nil {
		t.Error("a closed echo still answers")
	}
	if got := hostSpeed(echoNominal, echoNominal); got != 1 {
		t.Errorf("speed at the nominal round trip = %g, want 1", got)
	}
	if got := hostSpeed(2*echoNominal, 2*echoNominal); got != 0.5 {
		t.Errorf("speed at twice the nominal round trip = %g, want 0.5", got)
	}
}
