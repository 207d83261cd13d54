package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path; Dir the source directory.
	Path string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns from moduleDir with the go tool, then parses and
// type-checks every matched package. Module-internal dependencies are
// type-checked from source too, in dependency order, so that every
// package in one Load shares one object world, so types.Implements and
// *types.Func identity hold across package boundaries. Standard
// library dependencies are resolved from compiler export data, so
// loading ./... still costs one cached build, not a source type-check
// of the world.
//
// Only non-test Go files are analyzed: the invariants nestedlint
// enforces (allocation-free hot paths, deterministic sweep output)
// concern shipped simulator code, and tests legitimately use maps,
// fmt, and wall clocks.
func Load(moduleDir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, listed, err := goList(moduleDir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := &sourceFirstImporter{
		source:   map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "gc", lookup),
	}

	// go list -deps emits dependencies before dependents, so checking in
	// listed order guarantees every module-internal import is already
	// source-checked when its importer asks for it.
	var pkgs []*Package
	for _, t := range listed {
		if t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		imp.source[t.ImportPath] = pkg.Types
		if !t.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// sourceFirstImporter serves module packages from the source-checked
// set built up during Load and everything else (the standard library)
// from compiler export data.
type sourceFirstImporter struct {
	source   map[string]*types.Package
	fallback types.Importer
}

// Import implements types.Importer.
func (si *sourceFirstImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.source[path]; ok {
		return p, nil
	}
	return si.fallback.Import(path)
}

// goList runs `go list -json -export -deps` and splits the result into
// export-data locations (for every listed package) and the full
// dependency-ordered package list (targets carry DepOnly == false).
func goList(moduleDir string, patterns []string) (exports map[string]string, listed []listPackage, err error) {
	args := append([]string{"list", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports = map[string]string{}
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		listed = append(listed, p)
	}
	return exports, listed, nil
}

// checkPackage parses and type-checks one listed package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, t listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		Path:  t.ImportPath,
		Dir:   t.Dir,
		Fset:  fset,
		Files: files,
		Types: pkg,
		Info:  info,
	}, nil
}

// FindModuleRoot walks upward from dir to the enclosing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
