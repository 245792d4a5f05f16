package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

type namedValue struct {
	name, unit string
	v          float64
}

// hostProbe describes the machine during a run rather than the program:
// how many cores the process kept busy, how much of the host's time the
// hypervisor took, whether a fixed piece of work ran at the same speed
// before and after, how long the echo's round trips took, and whether the
// CPUs were kept awake. A throughput delta next to a large steal or drift
// is the host's.
type hostProbe struct {
	spinners       int
	t0, t1         time.Time
	cpu0, cpu1     time.Duration
	steal0, total0 uint64
	steal1, total1 uint64
	cal0, cal1     time.Duration
}

func startHostProbe(spinners int) *hostProbe {
	h := &hostProbe{spinners: spinners, cal0: calibrate()}
	h.steal0, h.total0 = procStat()
	h.t0, h.cpu0 = time.Now(), cpuTime()
	return h
}

func (h *hostProbe) stop() {
	h.t1, h.cpu1 = time.Now(), cpuTime()
	h.steal1, h.total1 = procStat()
	h.cal1 = calibrate()
}

func (h *hostProbe) metrics(w *window) []namedValue {
	var steal float64
	if d := h.total1 - h.total0; d > 0 {
		steal = 100 * float64(h.steal1-h.steal0) / float64(d)
	}
	return []namedValue{
		{"host.busy_cores", "1", float64(h.cpu1-h.cpu0) / float64(h.t1.Sub(h.t0))},
		{"host.steal_pct", "%", steal},
		{"host.cal_drift_pct", "%", 100 * (float64(h.cal1)/float64(h.cal0) - 1)},
		{"host.cal_ms", "ms", float64(h.cal0+h.cal1) / 2e6},
		{"host.echo_rtt_us", "us", w.sliceEstimate(func(s *slice) float64 { return float64(echoNominal) / 1e3 / s.speed })},
		{"host.spinners", "count", float64(h.spinners)},
	}
}

var calSink uint64

// calibrate times a fixed reference loop, best of three.
func calibrate() time.Duration {
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink += x
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// procStat reads the steal and total jiffies of the aggregate cpu line of
// /proc/stat; both are 0 where the file is missing.
func procStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already inside user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
