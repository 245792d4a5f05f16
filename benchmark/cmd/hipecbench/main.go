// Command hipecbench is the repository's benchmark. It drives the public
// surface hipecd runs — hipec.OpenStore, hipec.Serve and hipec.Dial over
// loopback TCP — and the deterministic simulator, in process, closed loop,
// checks every result, and prints each metric by name and unit. README.md in
// the benchmark directory says what the workloads and metrics are for.
//
//	hipecbench -workload net_rw_4k -seed 1            end-to-end metrics
//	hipecbench -workload net_rw_4k -seed 1 -trace 1   per-layer metrics
//	hipecbench -repeat 6                              noise check of the bounds
//
// The last line of standard output is one JSON object with the run's result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"hipec"
)

// workloadNames is the suite, in the order -repeat runs it.
var workloadNames = []string{"net_touch_hit", "net_rw_4k", "net_fault_file", "sim_join"}

// metric names a reported number and its unit. The lists in metrics.go are
// what BENCHMARK.json declares; a test holds the two together.
type metric struct{ name, unit string }

// protocol is the part of a run's shape that is fixed, not a flag: runs that
// differ in it would not be comparable under the same metric names. Tests
// shorten it.
type protocol struct {
	// awake keeps the CPUs from idling during a run (keepAwake).
	awake  func() (stop func(), spinners int, err error)
	setups int // complete set-ups; setup_s is their median
	warmup time.Duration
}

// Nine set-ups of about a tenth of a second each put a second of set-up
// work behind setup_s.
var benchmarkProtocol = protocol{awake: keepAwake, setups: 9, warmup: 3 * time.Second}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// instance is one complete set-up of a workload.
type instance interface {
	generators(seed int64) []generator
	// counterGates checks the program's own counters against the number of
	// page accesses the generators issued; each violation is a failed op.
	counterGates(issued int64) (violations int64, report string)
	close() error
}

type simInstance struct{}

func (simInstance) generators(int64) []generator       { return []generator{simGenerator} }
func (simInstance) counterGates(int64) (int64, string) { return 0, "" }
func (simInstance) close() error                       { return nil }

func setup(workload string, opts ...hipec.ServeOption) (instance, error) {
	if workload == "sim_join" {
		return simInstance{}, setupSim()
	}
	spec, ok := netSpecs[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return setupNet(spec, opts...)
}

// timedSetups sets the workload up reps times, the echo on either side
// of each, and returns the last instance with the median set-up time, scaled
// to the nominal host and as measured. The earlier instances are torn down,
// which must leave no goroutine and no file behind.
func timedSetups(workload string, reps int, e *echo) (in instance, scaled, raw float64, err error) {
	var times, atNominal []float64
	goroutines := runtime.NumGoroutine()
	for i := 0; ; i++ {
		runtime.GC() // every set-up starts from a collected heap
		before, err := e.rtt()
		if err != nil {
			return nil, 0, 0, err
		}
		start := time.Now()
		if in, err = setup(workload); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		took := time.Since(start).Seconds()
		after, err := e.rtt()
		if err != nil {
			in.close()
			return nil, 0, 0, err
		}
		times, atNominal = append(times, took), append(atNominal, took*hostSpeed(before, after))
		if i == reps-1 {
			return in, median(atNominal), median(times), nil
		}
		if err := teardown(in, goroutines); err != nil {
			return nil, 0, 0, fmt.Errorf("tear-down %d: %w", i, err)
		}
		in = nil // so that the next collection frees its arena
	}
}

// teardown closes an instance and checks that nothing of it survives.
func teardown(in instance, goroutines int) error {
	if err := in.close(); err != nil {
		return err
	}
	if n, ok := in.(*netInstance); ok && n.dir != "" {
		if _, err := os.Stat(n.dir); !os.IsNotExist(err) {
			return fmt.Errorf("temp dir %s left behind", n.dir)
		}
	}
	// Goroutines that were told to stop may take a moment to be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines left behind", runtime.NumGoroutine()-goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// runEndToEnd is the untraced run: the set-ups, a warm-up, the measured
// window, then the counter gates.
func runEndToEnd(workload string, seed int64, seconds int, p protocol, spinners int, log io.Writer) (result, error) {
	e, err := newEcho()
	if err != nil {
		return result{}, err
	}
	defer e.close()
	in, setupS, setupRaw, err := timedSetups(workload, p.setups, e)
	if err != nil {
		return result{}, err
	}
	defer in.close()
	host := startHostProbe(spinners)
	w, err := measure(in.generators(seed), e, p.warmup, seconds)
	if err != nil {
		return result{}, err
	}
	host.stop()
	w.timerPaced = netSpecs[workload].timerPaced
	violations, report := in.counterGates(w.issued())
	if report != "" {
		fmt.Fprintf(log, "counter gates: %s\n", report)
	}

	vals, raw := w.endToEnd()
	vals["setup_s"], raw["setup_s"] = setupS, setupRaw
	vals["peak_rss_mb"] = peakRSSMB()
	res := result{
		Attempted: w.issued(),
		Failed:    w.failed() + violations,
		Metrics:   make(map[string]value),
	}
	res.Correct = res.Failed == 0
	for _, m := range endToEndMetrics {
		if math.IsNaN(vals[m.name]) {
			return res, fmt.Errorf("%s has no samples: the window is too short for this workload", m.name)
		}
		res.Metrics[m.name] = value{vals[m.name], m.unit}
		fmt.Fprintf(log, "%-22s %14.4f %s", m.name, vals[m.name], m.unit)
		if r, ok := raw[m.name]; ok {
			fmt.Fprintf(log, "   (as the clock read it: %.4f)", r)
		}
		fmt.Fprintln(log)
	}
	// The host's state is not a result, but a reader should see it before
	// believing a throughput delta.
	for _, m := range host.metrics(w) {
		fmt.Fprintf(log, "%-22s %14.4f %s\n", m.name, m.v, m.unit)
	}
	fmt.Fprintf(log, "attempted %d failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinFlag {
		cpu, _ := strconv.Atoi(os.Args[2])
		spin(cpu)
		return
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, benchmarkProtocol))
}

// realMain is main without the process.
func realMain(args []string, stdout, stderr io.Writer, p protocol) int {
	fs := flag.NewFlagSet("hipecbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of net_touch_hit, net_rw_4k, net_fault_file, sim_join")
	seed := fs.Int64("seed", 1, "seed of the generated operation streams")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
	out := fs.String("out", "benchmark/out", "directory the traced run writes its spans to")
	repeat := fs.Int("repeat", 0, "run the whole suite N times and report each metric's spread")
	spec := fs.String("spec", "BENCHMARK.json", "with -repeat: where the metrics' bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hipecbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *repeat > 0 {
		if err := runRepeat(*repeat, *seconds, *spec, stdout); err != nil {
			fmt.Fprintf(stderr, "hipecbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "hipecbench: -seconds must be at least 1")
		return 2
	}

	stop, spinners, err := p.awake()
	if err != nil {
		fmt.Fprintf(stderr, "hipecbench: %v\n", err)
		return 1
	}
	defer stop()
	var res result
	if *trace != 0 {
		res, err = runTraced(*workload, *seed, *out, spinners, stdout)
	} else {
		res, err = runEndToEnd(*workload, *seed, *seconds, p, spinners, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hipecbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hipecbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
