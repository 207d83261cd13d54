package analysis

import (
	"go/ast"
	"go/types"
)

// DetRange enforces byte-determinism across the simulation — every
// module package but the commands, this suite, and the wall-clock serve
// engine (deterministicPackages): sweeps must render byte-identical
// results at any -parallel setting and across runs, which is what makes
// the committed figures, the pinned report digests, and the engine's
// determinism regressions trustworthy. Three constructs silently break
// that:
//
//   - ranging over a map (iteration order is randomized per run) —
//     collect keys and sort them instead;
//   - time.Now and time.Since (wall-clock values leak into output and
//     differ per run);
//   - the math/rand global source (shared, seeded per process, and
//     drawn from in scheduling order) — derive a private *rand.Rand
//     from runner.Seed so streams depend only on task identity.
var DetRange = &Analyzer{
	Name:      "detrange",
	Doc:       "forbid map iteration, time.Now, and the global math/rand source in the deterministic simulation packages",
	AppliesTo: deterministicPackages,
	Run:       runDetRange,
}

// randGlobalAllowed lists math/rand identifiers that do not touch the
// package-level generator: constructors and types used to build a
// seeded private source.
var randGlobalAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDetRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if _, isMap := pass.Info.TypeOf(n.X).Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic; collect and sort keys instead")
				}
			case *ast.Ident:
				// Covers both qualified uses (rand.Intn — the selector's
				// Sel ident) and dot-imported bare uses.
				checkDetUse(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDetUse flags ident when it resolves to time.Now or to a
// package-level math/rand function drawing from the global source.
func checkDetUse(pass *Pass, ident *ast.Ident) {
	fn, ok := pass.Info.Uses[ident].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(ident.Pos(), "time.%s leaks wall-clock values into deterministic output; thread a logical clock instead", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randGlobalAllowed[fn.Name()] {
			pass.Reportf(ident.Pos(), "%s.%s draws from the process-global source; use a *rand.Rand seeded via runner.Seed", fn.Pkg().Path(), fn.Name())
		}
	}
}
