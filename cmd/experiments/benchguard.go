package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type report map[string]float64

func load(path string) (report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r := report{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			r[k] = f
		}
	}
	return r, nil
}

// benchguard compares two experiments -bench-json reports and returns 1
// when the new one regresses the kernel's performance contract. It is the
// CI gate behind the BENCH_*.json series:
//
//	experiments benchguard -old BENCH_0004.json -new bench.json
//
// Checks, in order:
//
//   - executor ns/command must not regress more than -max-regress-pct
//     (default 10%) against the old report;
//   - the executor hot path must stay allocation-free;
//   - when the new report carries the data-plane fields, the resident-hit
//     path must stay allocation-free;
//   - when the new report carries the sharded fields, the multi-kernel
//     faults/sec headline must be present and positive.
//
// A gate whose field is absent from the new report is skipped, so the
// guard works across report-schema growth and shrinkage.
func benchguard(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		oldPath    = fs.String("old", "", "baseline bench JSON")
		newPath    = fs.String("new", "", "candidate bench JSON")
		maxRegress = fs.Float64("max-regress-pct", 10, "max allowed ns/command regression, percent")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchguard: -old and -new are required")
		return 2
	}
	oldR, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}
	newR, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}
	if check(stdout, stderr, oldR, newR, *maxRegress) {
		return 1
	}
	return 0
}

// check applies every gate and reports whether any failed. A gate whose
// field is absent from the new report is skipped.
func check(stdout, stderr io.Writer, oldR, newR report, maxRegress float64) (failed bool) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "benchguard: FAIL: "+format+"\n", args...)
		failed = true
	}
	pass := func(format string, args ...any) {
		fmt.Fprintf(stdout, "benchguard: ok: "+format+"\n", args...)
	}

	// ns/command regression gate.
	oldNs, newNs := oldR["executor_ns_per_command"], newR["executor_ns_per_command"]
	switch {
	case oldNs <= 0 || newNs <= 0:
		fail("executor_ns_per_command missing (old=%v new=%v)", oldNs, newNs)
	case newNs > oldNs*(1+maxRegress/100):
		fail("executor ns/command regressed %.1f%% (%.2f -> %.2f, limit %.0f%%)",
			100*(newNs-oldNs)/oldNs, oldNs, newNs, maxRegress)
	default:
		pass("executor ns/command %.2f -> %.2f (%+.1f%%, limit +%.0f%%)",
			oldNs, newNs, 100*(newNs-oldNs)/oldNs, maxRegress)
	}

	// Allocation gates: the hot paths must stay at zero.
	if a, ok := newR["executor_allocs_per_run"]; !ok || a != 0 {
		fail("executor_allocs_per_run = %v, want 0", a)
	} else {
		pass("executor hot path allocation-free")
	}
	if a, ok := newR["resident_hit_allocs_per_op"]; ok {
		if a != 0 {
			fail("resident_hit_allocs_per_op = %v, want 0", a)
		} else {
			pass("resident-hit path allocation-free")
		}
	}

	// Scale gate: the sharded headline must exist and be positive.
	if fps, ok := newR["faults_per_sec"]; ok {
		if fps <= 0 {
			fail("faults_per_sec = %v, want > 0", fps)
		} else {
			pass("multi-kernel throughput %.0f faults/sec over %d shards",
				fps, int(newR["shards"]))
		}
	}

	return failed
}
