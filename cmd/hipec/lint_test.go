package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hipec/internal/hpl"
	"hipec/internal/hpl/verify"
	"hipec/internal/policies"
)

const cleanSource = `
minframe = 4
event PageFault() {
    page = dequeue_head(_free_queue)
    return page
}
event ReclaimFrame() {
    return
}
`

const cycleSource = `
minframe = 4
event PageFault() {
    page = dequeue_head(_free_queue)
    return page
}
event ReclaimFrame() {
    return
}
event A() {
    activate B()
}
event B() {
    activate A()
}
`

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintSourceClean(t *testing.T) {
	path := writeTemp(t, "clean.hpl", []byte(cleanSource))
	diags, err := lintPolicy("", path, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if verify.HasErrors(diags) {
		t.Fatalf("clean source produced errors: %v", diags)
	}
}

func TestLintSourceCycle(t *testing.T) {
	path := writeTemp(t, "cycle.hpl", []byte(cycleSource))
	diags, err := lintPolicy("", path, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Code == verify.CodeActivateCycle && d.Severity == verify.SevError {
			found = true
		}
	}
	if !found {
		t.Fatalf("want activate-cycle error, got %v", diags)
	}
}

// TestLintBinaryRoundTrip: a canned policy encoded in the binary
// container must lint clean in kind-inference mode.
func TestLintBinaryRoundTrip(t *testing.T) {
	spec, err := policies.ByName("fifo2", 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hpl.EncodeBinary(&buf, spec); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "fifo2.hpb", buf.Bytes())
	diags, err := lintPolicy("", path, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if verify.HasErrors(diags) {
		t.Fatalf("binary round trip produced errors: %v", diags)
	}
}

// TestLintBinarySniff: garbage that is not a policy container must be
// treated as (unparseable) source, not crash the binary decoder.
func TestLintBinarySniff(t *testing.T) {
	path := writeTemp(t, "garbage.hpl", []byte("not a policy"))
	if _, err := lintPolicy("", path, 64, true); err == nil {
		t.Fatal("garbage source must fail to translate")
	}
}

// TestLintBuiltinsClean: every canned policy the README lists passes the
// verifier through the same entry point CI uses.
func TestLintBuiltinsClean(t *testing.T) {
	for _, p := range []string{"fifo", "lru", "mru", "fifo2", "sequential"} {
		var stderr bytes.Buffer
		if rc := lint([]string{"-builtin", p}, io.Discard, &stderr); rc != 0 {
			t.Errorf("hipec lint -builtin %s: exit %d\n%s", p, rc, &stderr)
		}
	}
}
