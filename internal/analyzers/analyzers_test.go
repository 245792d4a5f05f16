package analyzers

import (
	"encoding/json"
	"go/token"
	"testing"
)

// TestRepoIsClean walks the real source tree with every pass enabled: the
// repo must hold its own invariants, and every inline vet-ignore must still
// be suppressing something.
func TestRepoIsClean(t *testing.T) {
	findings, err := Run("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}

// TestFindingJSON pins the -json artifact shape CI depends on.
func TestFindingJSON(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "internal/vm/vm.go", Line: 3, Column: 7},
		Analyzer: "mapinloop",
		Msg:      "map lookup inside hot-path function access",
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/vm/vm.go","line":3,"col":7,"pass":"mapinloop","msg":"map lookup inside hot-path function access"}`
	if string(b) != want {
		t.Fatalf("Finding JSON = %s, want %s", b, want)
	}
}

// TestPassRegistry guards the registry against silent drops: all seven
// passes stay registered and suppressible by name.
func TestPassRegistry(t *testing.T) {
	for _, name := range []string{
		"wallclock", "simclock", "globalrand", "errtype", "globalstate",
		"mapinloop", "blockinloop",
	} {
		if !knownPasses[name] {
			t.Errorf("pass %q missing from the registry", name)
		}
	}
	if len(knownPasses) != 7 {
		t.Errorf("registry has %d passes, want 7", len(knownPasses))
	}
}
