// Command nestedlint is the repository's multichecker: it runs the
// internal/analysis suite — hotpathalloc, detrange, scratchalias,
// statsguard, addrspace, epochguard, sealedwrite, and atomicmix — over
// the named packages and exits non-zero on any unsuppressed finding.
// `make lint` runs it over ./... as a tier-1 gate; see README.md
// ("Static analysis") for the invariants and the //nestedlint:hotpath,
// //nestedlint:ignore, //nestedlint:domaincast, //nestedlint:writer,
// and //nestedlint:immutable directives.
//
// Usage:
//
//	nestedlint [-list] [-v] [-analyzer=NAME[,NAME...]] [-json] [-escapes] [packages]
//
// Packages default to ./... relative to the enclosing module root.
// -analyzer restricts the run to a comma-separated subset (CI isolates
// addrspace and the concurrency trio this way); -json emits findings
// as a JSON array on stdout for machine consumption instead of the
// file:line:col text form. -escapes switches from finding violations
// to inventorying the escape hatches: every //nestedlint:ignore and
// //nestedlint:domaincast directive with its location, scope, and
// reason, flagging stale ones (directives that no longer suppress or
// whitelist anything) — exit status 1 when any escape is stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"nestedecpt/internal/analysis"
)

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	verbose := flag.Bool("v", false, "report per-package progress and suppressed-finding counts")
	only := flag.String("analyzer", "", "run only the named analyzers (comma-separated; default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	escapes := flag.Bool("escapes", false, "inventory //nestedlint:ignore and //nestedlint:domaincast escapes instead of reporting findings")
	flag.Parse()

	analyzers := analysis.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "nestedlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	if *escapes {
		stale, err := runEscapes(analyzers, flag.Args(), *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestedlint:", err)
			os.Exit(2)
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "nestedlint: %d stale escape(s) — delete them or re-justify\n", stale)
			os.Exit(1)
		}
		return
	}

	findings, err := run(analyzers, flag.Args(), *verbose, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestedlint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "nestedlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// run loads the packages, applies every applicable analyzer, prints
// unsuppressed diagnostics (as text or JSON), and returns how many
// there were.
func run(analyzers []*analysis.Analyzer, patterns []string, verbose, jsonOut bool) (int, error) {
	pkgs, err := loadPackages(patterns)
	if err != nil {
		return 0, err
	}

	findings, suppressed := 0, 0
	jsonFindings := []finding{}
	for _, pkg := range pkgs {
		ignores := analysis.NewIgnoreSet(pkg.Fset, pkg.Files)
		var diags []analysis.Diagnostic
		diags = append(diags, ignores.BareDirectives()...)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := a.RunPackage(pkg)
			if err != nil {
				return findings, err
			}
			diags = append(diags, ds...)
		}
		kept := diags[:0]
		for _, d := range diags {
			if d.Analyzer != "nestedlint" && ignores.Suppressed(d) {
				suppressed++
				continue
			}
			kept = append(kept, d)
		}
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
		for _, d := range kept {
			pos := pkg.Fset.Position(d.Pos)
			if jsonOut {
				jsonFindings = append(jsonFindings, finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
				continue
			}
			fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		}
		findings += len(kept)
		if verbose {
			fmt.Fprintf(os.Stderr, "# %s: %d finding(s)\n", pkg.Path, len(kept))
		}
	}
	if verbose && suppressed > 0 {
		fmt.Fprintf(os.Stderr, "# %d finding(s) suppressed by //nestedlint:ignore\n", suppressed)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonFindings); err != nil {
			return findings, err
		}
	}
	return findings, nil
}

// runEscapes inventories the escape-hatch directives of the named
// packages and returns how many are stale. Text output is one line per
// escape (file:line, directive, scope, staleness, reason); -json emits
// the analysis.Escape records verbatim.
func runEscapes(analyzers []*analysis.Analyzer, patterns []string, jsonOut bool) (int, error) {
	pkgs, err := loadPackages(patterns)
	if err != nil {
		return 0, err
	}
	escapes, err := analysis.AuditEscapes(pkgs, analyzers)
	if err != nil {
		return 0, err
	}
	stale := 0
	for _, e := range escapes {
		if e.Stale {
			stale++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(escapes); err != nil {
			return stale, err
		}
		return stale, nil
	}
	for _, e := range escapes {
		scope := e.Analyzer
		if scope == "" {
			scope = "*"
		}
		mark := " "
		if e.Stale {
			mark = "!"
		}
		fmt.Printf("%s %s:%d: %s[%s]: %s\n", mark, e.File, e.Line, e.Directive, scope, e.Reason)
	}
	fmt.Printf("%d escape(s), %d stale\n", len(escapes), stale)
	return stale, nil
}

// loadPackages resolves patterns (default ./...) from the enclosing
// module root.
func loadPackages(patterns []string) ([]*analysis.Package, error) {
	moduleRoot, err := analysis.FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return analysis.Load(moduleRoot, patterns...)
}
