package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the six legacy passes, ported from the old per-file
// go/ast walker onto the type-aware engine. Each now matches on resolved
// objects and package paths — a renamed import (`import t "time"`), an
// aliased type, or a cross-package map value are all visible — where the old
// passes matched identifier spelling and failed open on anything indirect.

// wallClockFuncs are the time-package functions that read or wait on the
// real clock. Simulation code must use the substrate clock so runs are
// deterministic and replayable.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func checkWallClock(p *Pkg, report reportFunc) {
	if wallClockExempt[p.Path] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if ok && pkgFunc(fn, "time", fn.Name()) && wallClockFuncs[fn.Name()] {
				report(sel, "time.%s reads the wall clock in a simulation package; use the substrate clock", fn.Name())
			}
			return true
		})
	}
}

// simClockIdents are the simtime identifiers that pin code to the concrete
// simulation backend. The value types (simtime.Time, simtime.Duration) stay
// legal everywhere: they are substrate-neutral vocabulary, not a backend
// dependency.
var simClockIdents = map[string]bool{
	"Clock": true, "NewClock": true, "Event": true,
}

// checkSimClock keeps the substrate seam tight: outside internal/substrate,
// engine code must depend on substrate.Clock, never on the concrete
// *simtime.Clock (or its *simtime.Event timer handles). A direct reference
// re-welds the kernel to the simulation and silently breaks the realtime
// backend.
func checkSimClock(p *Pkg, report reportFunc) {
	if simClockExempt[p.Path] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "hipec/internal/simtime" {
				return true
			}
			if simClockIdents[obj.Name()] {
				report(sel, "simtime.%s pins this package to the simulation backend; depend on substrate.Clock", obj.Name())
			}
			return true
		})
	}
}

// globalRandOK are the math/rand constructors that produce an explicitly
// seeded generator; every other package-level function (Intn, Seed, ...)
// draws from or mutates the shared global source. Methods on a *rand.Rand
// value are always legal — that is the seeded generator itself.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func checkGlobalRand(p *Pkg, report reportFunc) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if ok && pkgFunc(fn, "math/rand", fn.Name()) && !globalRandOK[fn.Name()] {
				report(sel, "rand.%s uses the global math/rand state; use an explicitly seeded *rand.Rand", fn.Name())
			}
			return true
		})
	}
}

// checkErrType requires kernel packages to return typed errors: a return
// statement must not hand back a bare fmt.Errorf whose format lacks %w, or
// an inline errors.New. Both lose the hiperr taxonomy (nothing to match
// with errors.Is). Package-level sentinel declarations stay legal — that is
// exactly where errors.New belongs. The format string is resolved through
// constant folding, so a named format constant is checked too.
func checkErrType(p *Pkg, report reportFunc) {
	if !kernelPkgs[p.Path] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				fn := p.funcFor(call)
				switch {
				case pkgFunc(fn, "fmt", "Errorf"):
					if format, ok := p.constString(call.Args[0]); ok && !strings.Contains(format, "%w") {
						report(call, "returned fmt.Errorf without %%w drops the hiperr error taxonomy; wrap a sentinel")
					}
				case pkgFunc(fn, "errors", "New"):
					report(call, "returned inline errors.New is untyped; declare a package sentinel or wrap a hiperr one")
				}
			}
			return true
		})
	}
}

// constString resolves e to its constant string value via the type-checker's
// constant folding.
func (p *Pkg) constString(e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkGlobalState keeps kernel packages free of package-level mutable
// numeric state and sync/atomic: counters belong in the kevent registry
// (or per-object Stats structs), and package globals leak between the
// independent kernels tests construct. Resolved types catch what the old
// syntactic pass could not: `var n = computeSize()` and named integer types
// are package counters too.
func checkGlobalState(p *Pkg, report reportFunc) {
	if !kernelPkgs[p.Path] {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync/atomic"` {
				report(imp, "kernel package imports sync/atomic; counters belong in the kevent registry")
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
						report(name, "package-level numeric var %s in a kernel package; use the kevent registry", name.Name)
					}
				}
			}
		}
	}
}

// checkMapInLoop guards the data-plane overhaul: the fault and pageout hot
// paths replaced their per-access map lookups with dense page-indexed slices
// and intrusive queues, and this pass keeps maps from creeping back. Inside
// any //hipec:hotpath function, indexing or ranging over a value whose
// resolved type is a map is a finding — including maps declared in other
// files or packages, which the old syntactic pass could not see. The sparse
// page-table fallback keeps its map deliberately and carries an inline
// vet-ignore at each probe site.
func checkMapInLoop(p *Pkg, report reportFunc) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hotPathMarked(fd) || fd.Body == nil {
				continue
			}
			isMap := func(e ast.Expr) bool {
				t := p.exprType(e)
				if t == nil {
					return false
				}
				_, ok := t.Underlying().(*types.Map)
				return ok
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.IndexExpr:
					if isMap(v.X) {
						report(v, "map lookup inside hot-path function %s; use a dense index or suppress with a vet-ignore directive", fd.Name.Name)
					}
				case *ast.RangeStmt:
					if isMap(v.X) {
						report(v, "map iteration inside hot-path function %s is allocation- and order-hazardous; use a dense index or suppress with a vet-ignore directive", fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}
