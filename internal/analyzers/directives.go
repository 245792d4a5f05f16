package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Inline suppression: a finding can be silenced at its site with
//
//	//hipec:vet-ignore <pass>[,<pass>...] -- <reason>
//
// placed on the offending line or on its own line immediately above. The
// reason is mandatory — a suppression without one is itself a finding, as is
// a suppression naming an unknown pass or one that suppresses nothing
// (unused suppressions rot into lies as the code under them changes).
// Suppressions are the successor of the old embedded allowlist file: the
// waiver lives next to the code it waives, with its justification, and the
// engine verifies it still does something.

// directivePrefix introduces a suppression comment.
const directivePrefix = "//hipec:vet-ignore"

// metaPass names the pseudo-pass that reports directive problems (malformed
// syntax, unknown pass names, unused suppressions).
const metaPass = "vet-ignore"

// directive is one parsed vet-ignore comment.
type directive struct {
	pos    token.Position
	passes []string
	reason string
	bad    string // non-empty: parse problem, reported as a finding
	used   bool
}

// parseDirectives collects every vet-ignore directive in the package,
// validating syntax and pass names.
func parseDirectives(p *Pkg) []*directive {
	var ds []*directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d := &directive{pos: p.eng.fset.Position(c.Pos())}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") {
					continue // some other //hipec:vet-ignoreXXX token; not ours
				}
				spec, reason, found := strings.Cut(rest, "--")
				d.reason = strings.TrimSpace(reason)
				for _, name := range strings.Split(spec, ",") {
					if name = strings.TrimSpace(name); name != "" {
						d.passes = append(d.passes, name)
					}
				}
				switch {
				case len(d.passes) == 0:
					d.bad = "suppression names no pass; write //hipec:vet-ignore <pass> -- <reason>"
				case !found || d.reason == "":
					d.bad = fmt.Sprintf("suppression of %s has no reason; append ` -- <reason>`",
						strings.Join(d.passes, ","))
				default:
					for _, name := range d.passes {
						if !knownPasses[name] {
							d.bad = fmt.Sprintf("suppression names unknown pass %q", name)
						}
					}
				}
				ds = append(ds, d)
			}
		}
	}
	return ds
}

// applyDirectives filters raw findings through the package's suppressions
// and appends the directive machinery's own findings: malformed directives
// and suppressions that silenced nothing.
func applyDirectives(p *Pkg, raw []Finding) []Finding {
	ds := parseDirectives(p)
	var out []Finding
	for _, f := range raw {
		suppressed := false
		for _, d := range ds {
			if d.bad != "" || d.pos.Filename != f.Pos.Filename {
				continue
			}
			if f.Pos.Line != d.pos.Line && f.Pos.Line != d.pos.Line+1 {
				continue
			}
			match := false
			for _, name := range d.passes {
				if name == f.Analyzer {
					match = true
				}
			}
			if match {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	for _, d := range ds {
		switch {
		case d.bad != "":
			out = append(out, Finding{Pos: d.pos, Analyzer: metaPass, Msg: d.bad})
		case !d.used:
			out = append(out, Finding{Pos: d.pos, Analyzer: metaPass,
				Msg: fmt.Sprintf("unused suppression of %s (nothing fires here; delete the directive)",
					strings.Join(d.passes, ","))})
		}
	}
	return out
}

// hotPathMarked reports whether a function's doc comment carries the
// //hipec:hotpath directive (the dense data-plane contract mapinloop
// enforces).
func hotPathMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//hipec:hotpath") {
			return true
		}
	}
	return false
}
