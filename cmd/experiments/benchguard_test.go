package main

import (
	"io"
	"testing"
)

// TestSchemaShrink: a new report that dropped fields the baseline carries
// (here everything but the two executor gates) must still pass.
func TestSchemaShrink(t *testing.T) {
	oldR, err := load("../../BENCH_0004.json")
	if err != nil {
		t.Fatal(err)
	}
	trimmed := report{
		"executor_ns_per_command": oldR["executor_ns_per_command"],
		"executor_allocs_per_run": 0,
	}
	if check(io.Discard, io.Discard, oldR, trimmed, 10) {
		t.Fatal("benchguard failed a trimmed report with no regression")
	}
}
