package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	return dir
}

// allocsPerRunPins scans every test file under moduleDir for
// testing.AllocsPerRun function literals and returns the names they
// call, each with its pin sites.
func allocsPerRunPins(t *testing.T, moduleDir string) map[string][]string {
	t.Helper()
	pins := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleDir, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		rel, _ := filepath.Rel(moduleDir, p)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "AllocsPerRun" || len(call.Args) != 2 {
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				return true
			}
			site := fmt.Sprintf("%s:%d", rel, fset.Position(call.Pos()).Line)
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				c, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := c.Fun.(type) {
				case *ast.SelectorExpr:
					pins[fun.Sel.Name] = append(pins[fun.Sel.Name], site)
				case *ast.Ident:
					pins[fun.Name] = append(pins[fun.Name], site)
				}
				return true
			})
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("scanning test files: %v", err)
	}
	return pins
}

// TestAllocsPerRunPinsAreHot is the benchmark/annotation drift check:
// a function a test pins at zero allocations with testing.AllocsPerRun
// must be in its own package's hotpathalloc hot set, so the static gate
// checks what the runtime gate measures. The pins call through
// interfaces (core.Walker), so every method implementing a module
// interface method of a pinned name runs under the pin and must be hot
// too — hot sets never cross an interface call, so each implementation
// carries its own annotation.
func TestAllocsPerRunPinsAreHot(t *testing.T) {
	moduleDir := moduleRoot(t)
	pins := allocsPerRunPins(t, moduleDir)
	if len(pins) == 0 {
		t.Fatal("no testing.AllocsPerRun pins found; the drift check has lost its inputs")
	}
	pkgs, err := Load(moduleDir)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}

	hot := map[*types.Func]bool{}
	hotName := map[string]bool{}
	var ifaces []*types.Interface
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: HotpathAlloc, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
		for n := range hotRegion(pass) {
			if fd, ok := n.(*ast.FuncDecl); ok {
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				hot[fn] = true
				hotName[fn.Name()] = true
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}

	// Some declaration of each pinned name is hot. Names with no module
	// declaration (t.Fatal, local closures) are outside the check.
	matched := 0
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			sites, pinned := pins[fn.Name()]
			if !pinned {
				continue
			}
			matched++
			if !hotName[fn.Name()] {
				t.Errorf("%s is pinned zero-alloc by %s but no declaration of it is hot; annotate it //nestedlint:hotpath", fn.Name(), strings.Join(sites, ", "))
				hotName[fn.Name()] = true // report each name once
			}
			if !hot[fn] && implementsPinned(fn, ifaces) {
				t.Errorf("%s implements an interface method pinned zero-alloc by %s but is not hot in its package; annotate it //nestedlint:hotpath", fn.FullName(), strings.Join(sites, ", "))
			}
		}
	}
	if matched == 0 {
		t.Fatal("no pinned callee matched a module declaration; the pin scan is broken")
	}
}

// implementsPinned reports whether method fn implements a same-name
// method of one of ifaces.
func implementsPinned(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	for _, iface := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); obj == nil {
			continue
		}
		if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
			return true
		}
	}
	return false
}
