package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipec/internal/hpl"
)

func TestLoadSpecBuiltin(t *testing.T) {
	spec, err := loadSpec("mru", 32, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MinFrame != 32 {
		t.Fatalf("MinFrame = %d", spec.MinFrame)
	}
}

func TestLoadSpecUnknownBuiltin(t *testing.T) {
	if _, err := loadSpec("nope", 8, "", nil); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func TestLoadSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.hpl")
	src := `
minframe = 8
event PageFault() {
    page = dequeue_head(_free_queue)
    return page
}
event ReclaimFrame() { return }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec("", 0, "mypolicy", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "mypolicy" || spec.MinFrame != 8 {
		t.Fatalf("spec = %q/%d", spec.Name, spec.MinFrame)
	}
}

func TestLoadSpecBadArgs(t *testing.T) {
	if _, err := loadSpec("", 0, "", nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatal("missing-file case not reported")
	}
	if _, err := loadSpec("", 0, "", []string{"/nonexistent/file.hpl"}); err == nil {
		t.Fatal("unreadable file accepted")
	}
}

func TestWriteBinaryRoundTrip(t *testing.T) {
	spec, err := loadSpec("fifo2", 16, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.bin")
	if err := writeBinary(path, spec); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := hpl.DecodeBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(spec.Events) {
		t.Fatalf("events = %d, want %d", len(events), len(spec.Events))
	}
}

// TestCompileRejectsActivateCycle: compile always verifies, so a source
// the in-kernel checker would reject fails the compile and leaves no -o
// file behind.
func TestCompileRejectsActivateCycle(t *testing.T) {
	src := writeTemp(t, "cycle.hpl", []byte(cycleSource))
	out := filepath.Join(t.TempDir(), "cycle.bin")
	var stderr bytes.Buffer
	if rc := compile([]string{"-o", out, src}, io.Discard, &stderr); rc == 0 {
		t.Fatalf("compile accepted an Activate cycle\n%s", &stderr)
	}
	if !strings.Contains(stderr.String(), "activate-cycle") {
		t.Fatalf("rejection does not name the cycle:\n%s", &stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("rejected compile left %s behind (stat err %v)", out, err)
	}
}
