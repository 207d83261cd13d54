// Package analysis is nestedlint's analyzer framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) on top of the standard
// library's go/ast and go/types, plus the two source directives the
// suite understands:
//
//	//nestedlint:hotpath
//	    on a function's doc comment: the function (and everything it
//	    calls within its package) is a steady-state walk path and must
//	    not heap-allocate. Enforced by the hotpathalloc analyzer.
//
//	//nestedlint:ignore [analyzer:] <reason>
//	    on or immediately above a flagged line: suppress diagnostics on
//	    that line. The reason is mandatory; a bare ignore is itself a
//	    finding. An optional leading "analyzer:" token narrows the
//	    suppression to one analyzer (naming an unknown analyzer is a
//	    finding) so an escape cannot silently swallow findings from a
//	    gate it never meant to address. Use only where the comment can
//	    justify why the invariant holds anyway (e.g. "keys are sorted
//	    before use").
//
//	//nestedlint:coldpath <why>
//	    on a function's doc comment: the function is a slow path its hot
//	    callers reach only outside the steady state — first-touch
//	    allocation, copy-on-write privatization, panic formatting,
//	    overflow handling. hotpathalloc's hot-region propagation stops
//	    at it, so its allocations are not findings. The trailing
//	    justification is mandatory: the directive is a claim about
//	    dynamic behaviour the static graph cannot see, and the claim
//	    must be auditable. Pair it with //go:noinline when the caller
//	    is hot, so the cold body stays out of the hot function's
//	    inlined code.
//
//	//nestedlint:writer
//	    on a function's doc comment: the function belongs to the single
//	    mutating goroutine of the epoch/generation protocol and may call
//	    the writer-side ecpt APIs. Enforced by epochguard; doubles as
//	    the sanctioned-constructor marker sealedwrite honours.
//
//	//nestedlint:immutable
//	    on a type declaration's doc comment: values of the type are
//	    sealed snapshots once published — no field may be assigned
//	    outside a //nestedlint:writer constructor. Enforced by
//	    sealedwrite.
//
// The framework exists because the simulator's invariants — an
// allocation-free walk hot path, byte-deterministic sweep output, and
// the lock-free epoch/generation protocol — are load-bearing for the
// paper's evaluation but invisible to the compiler. Encoding them as
// analyzers turns "a test happened to notice" into "the build fails".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding an analyzer reports.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// AppliesTo filters the packages the driver runs the analyzer on;
	// nil means every package. Tests bypass the filter by running the
	// analyzer directly.
	AppliesTo func(importPath string) bool
	// Run inspects one type-checked package and reports findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// RunPackage applies a to pkg and returns the raw (unsuppressed)
// diagnostics in position order.
func (a *Analyzer) RunPackage(pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sort.SliceStable(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// Directive prefixes. Directive comments use the standard Go
// `//tool:directive` shape, so gofmt preserves them and godoc hides
// them.
const (
	hotpathDirective   = "//nestedlint:hotpath"
	coldpathDirective  = "//nestedlint:coldpath"
	ignoreDirective    = "//nestedlint:ignore"
	writerDirective    = "//nestedlint:writer"
	immutableDirective = "//nestedlint:immutable"
)

// HasHotpathDirective reports whether a function declaration carries
// the //nestedlint:hotpath directive in its doc comment.
func HasHotpathDirective(decl *ast.FuncDecl) bool {
	return hasDocDirective(decl.Doc, hotpathDirective)
}

// HasColdpathDirective reports whether a function declaration carries
// the //nestedlint:coldpath directive in its doc comment with the
// mandatory justification. A bare directive (no trailing note) does not
// count as cold — the claim must explain itself — and hotpathalloc
// reports it as a finding.
func HasColdpathDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if strings.HasPrefix(text, coldpathDirective+" ") &&
			strings.TrimSpace(strings.TrimPrefix(text, coldpathDirective)) != "" {
			return true
		}
	}
	return false
}

// HasBareColdpathDirective reports a //nestedlint:coldpath directive
// with no justification — itself a finding.
func HasBareColdpathDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == coldpathDirective {
			return true
		}
	}
	return false
}

// HasWriterDirective reports whether a function declaration carries
// the //nestedlint:writer directive in its doc comment. A trailing
// note after the directive word is allowed ("//nestedlint:writer the
// churn mutator owns every table") — the annotation is its own
// justification, unlike ignore's mandatory reason.
func HasWriterDirective(decl *ast.FuncDecl) bool {
	return hasDocDirective(decl.Doc, writerDirective)
}

// hasDocDirective reports whether doc contains directive, alone or
// followed by a note. "// nestedlint:…" (with a space) is prose, not a
// directive — exactly the gofmt rule.
func hasDocDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// IgnoreEntry is one well-formed //nestedlint:ignore directive.
type IgnoreEntry struct {
	// File and Line locate the directive comment itself.
	File string
	Line int
	Pos  token.Pos
	// Analyzer is the scope token ("" suppresses every analyzer).
	Analyzer string
	Reason   string
	// used records whether the directive suppressed any diagnostic in
	// the analyzer runs that consulted this set — the staleness signal
	// `nestedlint -escapes` reports.
	used bool
}

// Used reports whether the directive suppressed at least one
// diagnostic since the set was built.
func (e *IgnoreEntry) Used() bool { return e.used }

// ignoreScopeRE matches a leading "analyzer:" scope token in an ignore
// directive's payload. The token shape is an analyzer name (lowercase
// alphanumeric), so prose reasons — which start with a real word and a
// space — never collide with it.
var ignoreScopeRE = regexp.MustCompile(`^([a-z][a-z0-9]*):\s*(.*)$`)

// IgnoreSet records, per file line, the //nestedlint:ignore directives
// of one package. A directive suppresses diagnostics on its own line
// (the trailing-comment form) and on the line that follows (the
// stand-alone form placed above a long statement).
type IgnoreSet struct {
	fset    *token.FileSet
	entries []*IgnoreEntry
	// byKey maps "filename:line" (the directive's line and the one
	// after) to its entry.
	byKey map[string]*IgnoreEntry
	// malformed collects directives that are themselves findings: no
	// reason, or a scope naming an unknown analyzer.
	malformed []Diagnostic
}

// NewIgnoreSet scans every comment of the package's files.
func NewIgnoreSet(fset *token.FileSet, files []*ast.File) *IgnoreSet {
	s := &IgnoreSet{fset: fset, byKey: map[string]*IgnoreEntry{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
				scope := ""
				if m := ignoreScopeRE.FindStringSubmatch(reason); m != nil {
					if !knownAnalyzers()[m[1]] {
						s.malformed = append(s.malformed, Diagnostic{
							Pos:      c.Pos(),
							Message:  fmt.Sprintf("//nestedlint:ignore scope %q names no analyzer (see nestedlint -list); drop the scope or fix the name", m[1]),
							Analyzer: "nestedlint",
						})
						continue
					}
					scope, reason = m[1], strings.TrimSpace(m[2])
				}
				if reason == "" {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "//nestedlint:ignore requires a reason explaining why the invariant still holds",
						Analyzer: "nestedlint",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				e := &IgnoreEntry{File: pos.Filename, Line: pos.Line, Pos: c.Pos(), Analyzer: scope, Reason: reason}
				s.entries = append(s.entries, e)
				s.byKey[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = e
				s.byKey[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = e
			}
		}
	}
	return s
}

// Suppressed reports whether d is covered by an ignore directive,
// marking the directive used.
func (s *IgnoreSet) Suppressed(d Diagnostic) bool {
	pos := s.fset.Position(d.Pos)
	key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	e, ok := s.byKey[key]
	if !ok || (e.Analyzer != "" && e.Analyzer != d.Analyzer) {
		return false
	}
	e.used = true
	return true
}

// Entries returns the well-formed directives in scan order; used bits
// reflect the analyzer runs performed against this set so far.
func (s *IgnoreSet) Entries() []*IgnoreEntry { return s.entries }

// BareDirectives returns findings for //nestedlint:ignore directives
// that are malformed — no reason, or an unknown analyzer scope: the
// escape hatch must always justify itself, precisely.
func (s *IgnoreSet) BareDirectives() []Diagnostic {
	return append([]Diagnostic(nil), s.malformed...)
}

// deterministicPackages reports whether detrange applies to a package:
// every module package is part of the byte-deterministic simulation
// except the commands, this analyzer suite, and internal/serve, which
// measures wall-clock throughput by design.
func deterministicPackages(path string) bool {
	return !strings.HasPrefix(path, "nestedecpt/cmd/") &&
		!strings.HasPrefix(path, "nestedecpt/internal/analysis") &&
		path != "nestedecpt/internal/serve"
}

// All returns the analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		DetRange,
		ScratchAlias,
		StatsGuard,
		AddrSpace,
		EpochGuard,
		SealedWrite,
		AtomicMix,
	}
}

// knownAnalyzers returns the valid scope tokens for ignore directives:
// every analyzer name plus the framework's own "nestedlint".
var knownAnalyzersCache map[string]bool

func knownAnalyzers() map[string]bool {
	if knownAnalyzersCache == nil {
		m := map[string]bool{"nestedlint": true}
		for _, a := range All() {
			m[a.Name] = true
		}
		knownAnalyzersCache = m
	}
	return knownAnalyzersCache
}
