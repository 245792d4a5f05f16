package analyzers

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: every directory under testdata/src/<pass>/<case> is
// one package analyzed with the full engine. Expected findings are declared
// in the sources with want comments holding backquoted regexes:
//
//	now := time.Now() // want `wallclock: time\.Now reads the wall clock`
//
// A trailing want applies to its own line; a want alone on its line applies
// to the line below (the only way to expect a finding on a comment line,
// which is where the vet-ignore meta pass reports). Each finding must match
// exactly one want and each want exactly one finding.

// want is one expected finding parsed from a fixture source.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

const wantMarker = "// want "

// parseWants scans the fixture package's sources for want comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, wantMarker)
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based line of the comment itself
			if strings.HasPrefix(strings.TrimSpace(line), strings.TrimSpace(wantMarker)) {
				target++ // standalone want: expect on the next line
			}
			for _, raw := range backquoted(t, ent.Name(), i+1, line[idx+len(wantMarker):]) {
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", ent.Name(), i+1, raw, err)
				}
				wants = append(wants, &want{file: ent.Name(), line: target, re: re, raw: raw})
			}
		}
	}
	return wants
}

// backquoted extracts the backquote-delimited segments of a want spec.
func backquoted(t *testing.T, file string, line int, spec string) []string {
	t.Helper()
	var out []string
	for {
		start := strings.IndexByte(spec, '`')
		if start < 0 {
			break
		}
		end := strings.IndexByte(spec[start+1:], '`')
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want regexp", file, line)
		}
		out = append(out, spec[start+1:start+1+end])
		spec = spec[start+1+end+1:]
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: want comment carries no backquoted regexp", file, line)
	}
	return out
}

// TestFixtures runs every pass's hit and clean fixture packages through one
// shared engine and checks the findings against the want comments.
func TestFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(root)
	base := filepath.Join("testdata", "src")
	passDirs, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range passDirs {
		if !pd.IsDir() {
			continue
		}
		caseDirs, err := os.ReadDir(filepath.Join(base, pd.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, cd := range caseDirs {
			if !cd.IsDir() {
				continue
			}
			dir := filepath.Join(base, pd.Name(), cd.Name())
			// Subtests share the engine's package cache; run sequentially.
			t.Run(pd.Name()+"/"+cd.Name(), func(t *testing.T) {
				findings, err := eng.AnalyzeDir(dir)
				if err != nil {
					t.Fatalf("analyzing %s: %v", dir, err)
				}
				wants := parseWants(t, dir)
			findings:
				for _, f := range findings {
					got := f.Analyzer + ": " + f.Msg
					for _, w := range wants {
						if !w.hit && w.file == filepath.Base(f.Pos.Filename) &&
							w.line == f.Pos.Line && w.re.MatchString(got) {
							w.hit = true
							continue findings
						}
					}
					t.Errorf("unexpected finding: %v", f)
				}
				for _, w := range wants {
					if !w.hit {
						t.Errorf("%s:%d: no finding matched `%s`", w.file, w.line, w.raw)
					}
				}
			})
		}
	}
}

// TestFixtureDirRequiresIdentity checks that a fixture package without a
// //hipec:fixture-as directive is rejected rather than silently analyzed
// with the wrong scoping.
func TestFixtureDirRequiresIdentity(t *testing.T) {
	dir := t.TempDir()
	src := "package fixture\n\nfunc F() int { return 0 }\n"
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(root).AnalyzeDir(dir); err == nil ||
		!strings.Contains(err.Error(), "fixture-as") {
		t.Fatalf("expected fixture-as error, got %v", err)
	}
}
