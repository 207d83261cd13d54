package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StatsGuard keeps measurement honest: the counters, histograms, and
// series of internal/stats expose fields for cheap snapshotting, but
// every *update* from outside the package must go through the stats
// API (Hit/Miss/Record/Observe/Append/Add/Reset). Direct field writes
// from simulator code bypass the invariants the API maintains (count/
// sum/max coherence in Histogram, window accounting in the CWCs) and
// have no single place to audit when a figure looks wrong.
//
// Reads are unrestricted; constructing a stats value wholesale (a
// composite literal, or assigning a fresh zero value) is also allowed —
// that is initialization, not measurement. The only writers are the
// methods of stats-declared types: a free function, even one inside
// internal/stats, bypasses the API like any other caller.
var StatsGuard = &Analyzer{
	Name: "statsguard",
	Doc:  "require internal/stats counters to be updated through the stats API, never by direct field writes",
	Run:  runStatsGuard,
}

const statsPkgPath = "nestedecpt/internal/stats"

func runStatsGuard(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && statsMethod(pass.Info, fd) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkStatsWrite(pass, lhs)
					}
				case *ast.IncDecStmt:
					checkStatsWrite(pass, n.X)
				case *ast.UnaryExpr:
					// Taking a field's address hands out a write capability.
					if n.Op == token.AND {
						checkStatsWrite(pass, n.X)
					}
				}
				return true
			})
		}
	}
	return nil
}

// statsMethod reports whether fd is a method whose receiver type is
// declared in internal/stats — the holders of the invariants the
// fields encode.
func statsMethod(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == statsPkgPath
}

// checkStatsWrite flags expr when it denotes a field of a type defined
// in internal/stats.
func checkStatsWrite(pass *Pass, expr ast.Expr) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || field.Pkg().Path() != statsPkgPath {
		return
	}
	pass.Reportf(expr.Pos(), "direct write to stats field %s bypasses the stats API; use its update methods", field.Name())
}
