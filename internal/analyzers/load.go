package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// modulePath is this repo's module path; import paths under it resolve to
// repo directories instead of the standard library.
const modulePath = "hipec"

// Engine is the package-at-a-time, type-aware analysis engine. It parses and
// type-checks whole packages (go/parser + go/types, stdlib only: repo-local
// import paths are resolved against the repo tree, everything else goes
// through the stdlib source importer — no module downloads, no x/tools),
// caches every package it loads, and keeps a cross-package index of function
// declarations so call-graph passes (blockinloop) can chase static calls
// through the whole module.
type Engine struct {
	root string // repo root on disk
	fset *token.FileSet
	std  types.Importer // source importer for non-module paths

	pkgs    map[string]*Pkg // by import path ("hipec/internal/core")
	loading map[string]bool // cycle guard

	// funcs indexes every function/method declaration in loaded repo
	// packages by its types object; blockinloop walks call chains through it.
	funcs map[*types.Func]*declSite

	// blockMemo caches blockinloop's per-function verdict: the call chain
	// from the function to a blocking leaf, or nil when none is reachable.
	blockMemo map[*types.Func][]string
}

// declSite is one function declaration and the package it lives in.
type declSite struct {
	pkg  *Pkg
	decl *ast.FuncDecl
}

// Pkg is one loaded, type-checked package as the passes see it.
type Pkg struct {
	// Path is the repo-relative package path the scoping tables key on:
	// "internal/core", "cmd/hipecd", "." for the root package. Fixture
	// packages override it with a //hipec:fixture-as directive.
	Path       string
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	eng *Engine
}

// NewEngine builds an engine rooted at the repo root.
func NewEngine(root string) *Engine {
	fset := token.NewFileSet()
	return &Engine{
		root:      root,
		fset:      fset,
		std:       importer.ForCompiler(fset, "source", nil),
		pkgs:      map[string]*Pkg{},
		loading:   map[string]bool{},
		funcs:     map[*types.Func]*declSite{},
		blockMemo: map[*types.Func][]string{},
	}
}

// Fset exposes the engine's file set (positions in Findings resolve
// through it).
func (e *Engine) Fset() *token.FileSet { return e.fset }

// Import implements types.Importer: module-local paths load from the repo
// tree through this engine (recursively, cached); everything else is the
// standard library, type-checked from GOROOT source.
func (e *Engine) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		rel := "."
		if path != modulePath {
			rel = strings.TrimPrefix(path, modulePath+"/")
		}
		p, err := e.load(rel)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if from, ok := e.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, e.root, 0)
	}
	return e.std.Import(path)
}

// load parses and type-checks the repo package at the repo-relative dir rel
// ("." for the root package), caching by import path.
func (e *Engine) load(rel string) (*Pkg, error) {
	importPath := modulePath
	if rel != "." {
		importPath = modulePath + "/" + filepath.ToSlash(rel)
	}
	if p, ok := e.pkgs[importPath]; ok {
		return p, nil
	}
	if e.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	e.loading[importPath] = true
	defer delete(e.loading, importPath)

	dir := filepath.Join(e.root, filepath.FromSlash(rel))
	files, err := e.parseDir(dir)
	if err != nil {
		return nil, err
	}
	p, err := e.check(importPath, rel, files)
	if err != nil {
		return nil, err
	}
	e.pkgs[importPath] = p
	return p, nil
}

// parseDir parses every non-test Go file in dir that builds on the host
// platform, sorted by name. Build-constrained files (//go:build tags,
// _GOOS suffixes) are filtered the way the go tool filters them, so
// platform shim pairs don't redeclare each other under the type checker.
func (e *Engine) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		n := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(e.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package's files and registers its declarations in
// the cross-package function index.
func (e *Engine) check(importPath, relPath string, files []*ast.File) (*Pkg, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var firstErr error
	conf := types.Config{
		Importer: e,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, e.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	p := &Pkg{
		Path:       relPath,
		ImportPath: importPath,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		eng:        e,
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				e.funcs[fn] = &declSite{pkg: p, decl: fd}
			}
		}
	}
	return p, nil
}

// fixtureImportSeq numbers fixture packages so their import paths never
// collide with each other or with module packages.
var fixtureImportSeq int

// AnalyzeDir loads the package in dir (outside the module tree — fixture
// packages under testdata) and runs the passes over it. The package's
// repo-relative identity is taken from a mandatory
// `//hipec:fixture-as <path>` comment in one of its files, so a fixture can
// stand in for any package the scoping tables know about.
func (e *Engine) AnalyzeDir(dir string) ([]Finding, error) {
	files, err := e.parseDir(dir)
	if err != nil {
		return nil, err
	}
	as := ""
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//hipec:fixture-as "); ok {
					as = strings.TrimSpace(rest)
				}
			}
		}
	}
	if as == "" {
		return nil, fmt.Errorf("%s: fixture package lacks a //hipec:fixture-as directive", dir)
	}
	fixtureImportSeq++
	importPath := fmt.Sprintf("hipec.fixture%d/%s", fixtureImportSeq, filepath.Base(dir))
	p, err := e.check(importPath, as, files)
	if err != nil {
		return nil, err
	}
	return e.analyze(p), nil
}

// funcFor resolves a call expression's static callee, or nil when the
// callee is not a declared function or method (func values, conversions,
// builtins, interface-typed method values stay resolvable — interface
// *dispatch* resolves to the interface method object).
func (p *Pkg) funcFor(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := p.Info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// isBuiltin reports whether a call invokes the named builtin.
func (p *Pkg) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

// pkgFunc reports whether fn is the package-level function pkgPath.name
// (methods never match: their receiver distinguishes them).
func pkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// recvNamed resolves a method's receiver to (package path, type name);
// ok=false for package-level functions.
func recvNamed(fn *types.Func) (pkgPath, name string, ok bool) {
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, nok := t.(*types.Named)
	if !nok || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// exprType returns the static type of e (nil when untracked).
func (p *Pkg) exprType(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objectOf resolves an identifier to its object (definition or use).
func (p *Pkg) objectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}
