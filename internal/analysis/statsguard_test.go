package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"nestedecpt/internal/analysis"
	"nestedecpt/internal/analysis/analysistest"
)

func TestStatsGuard(t *testing.T) {
	analysistest.Run(t, analysis.StatsGuard, "testdata/src/statsguardtest")
}

// TestStatsGuardSkipsStatsItself pins the exemption's shape: inside
// internal/stats only methods of stats-declared types may write stats
// fields; a free function there bypasses the API like any caller.
func TestStatsGuardSkipsStatsItself(t *testing.T) {
	const src = `package stats

type Counter struct{ Hits, Misses uint64 }

func (c *Counter) Hit() { c.Hits++ }

func bump(c *Counter) { c.Misses++ }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stats.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	const path = "nestedecpt/internal/stats"
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.StatsGuard.RunPackage(&analysis.Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || fset.Position(diags[0].Pos).Line != 7 {
		t.Fatalf("got %v, want one finding on bump's write (line 7)", diags)
	}
}
