package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The tests measure nothing, so they leave the CPUs alone and keep it short.
var testProtocol = protocol{
	awake:  func() (func(), int, error) { return func() {}, 0, nil },
	setups: 2,
	warmup: 200 * time.Millisecond,
}

// A one-second run of every workload: every operation checked, the counter
// gates passed, every end-to-end metric reported and none of them zero.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadNames {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-workload", w, "-seed", "7", "-seconds", "1"}, &stdout, &stderr, testProtocol)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", w, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(endToEndMetrics))
		}
		for _, m := range endToEndMetrics {
			if v, ok := res.Metrics[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w, m.name, v, m.unit)
			}
		}
	}
	if entries, err := os.ReadDir(os.Getenv("TMPDIR")); err != nil || len(entries) != 0 {
		t.Errorf("the runs left %d entries in the temp dir (%v)", len(entries), err)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no_such"},
		{"-workload", "no_such", "-trace", "1"},
		{"-workload", "sim_join", "-seconds", "0"},
		{"-workload", "sim_join", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr, testProtocol); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(stdout.String(), `"metrics"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// A set-up torn down must be gone: no goroutine, no file.
func TestTeardownLeavesNothing(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	goroutines := runtime.NumGoroutine()
	in, err := setup("net_fault_file")
	if err != nil {
		t.Fatal(err)
	}
	if err := teardown(in, goroutines); err != nil {
		t.Error(err)
	}
}

// The exact counts of the ladder are a function of the seed alone.
func TestLadderCountsFollowTheSeed(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	spec := netSpecs["net_fault_file"]
	counts := func(seed int64) map[string]float64 {
		m := make(map[string]float64)
		tr := newTracer(1 << 16)
		totals, failed, err := ladderPass(spec, seed, 1500, tr, m)
		if err != nil || failed != 0 || len(totals) != 1500 {
			t.Fatalf("ladder pass: %d ops, %d failed, %v", len(totals), failed, err)
		}
		ids := make(map[uint32]bool)
		for _, s := range tr.all {
			ids[s.id] = true
		}
		for _, s := range tr.all {
			if s.parent != 0 && !ids[s.parent] {
				t.Fatalf("span %d names a parent %d that was not recorded", s.id, s.parent)
			}
		}
		exact := make(map[string]float64)
		for _, name := range []string{"vm.hit_ratio", "vm.faults_per_op", "vm.pageins_per_op", "vm.zerofills_per_op",
			"vm.pageouts_per_op", "vm.evictions_per_op", "core.executor.cmds_per_fault", "store.reads_per_op"} {
			exact[name] = m[name]
		}
		return exact
	}
	a, b, c := counts(5), counts(5), counts(6)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v with the same seed", name, a[name], b[name])
		}
	}
	if a["vm.faults_per_op"] == 0 {
		t.Error("net_fault_file did not fault")
	}
	if a["vm.faults_per_op"] == c["vm.faults_per_op"] && a["vm.pageouts_per_op"] == c["vm.pageouts_per_op"] {
		t.Errorf("another seed gave the same counts: %v", c)
	}
}

// BENCHMARK.json declares what this program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json above the benchmark directory: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
