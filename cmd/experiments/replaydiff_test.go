package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipec/internal/kevent"
)

func writeLog(t *testing.T, name string, evs []kevent.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&kevent.Log{Events: evs}).WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplaydiffExitStatus: identical logs exit 0; a one-event divergence
// exits 1 and names the index of the first divergent event.
func TestReplaydiffExitStatus(t *testing.T) {
	evs := make([]kevent.Event, 10)
	for i := range evs {
		evs[i] = kevent.Event{Type: kevent.EvHit, Space: 1, Addr: int64(i) * 4096}
	}
	a := writeLog(t, "a.kevlog", evs)
	same := writeLog(t, "same.kevlog", evs)
	evs[7].Addr++
	diverged := writeLog(t, "diverged.kevlog", evs)

	var out bytes.Buffer
	if rc := replaydiff([]string{a, same}, &out, &out); rc != 0 {
		t.Fatalf("identical logs: exit %d\n%s", rc, &out)
	}
	out.Reset()
	if rc := replaydiff([]string{a, diverged}, &out, &out); rc != 1 {
		t.Fatalf("diverged logs: exit %d, want 1\n%s", rc, &out)
	}
	if !strings.Contains(out.String(), "first divergent event: #7\n") {
		t.Fatalf("divergence report does not name event 7:\n%s", &out)
	}
}
