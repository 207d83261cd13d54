package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
)

// This file is `nestedlint -prove`: the whole-program proof that the
// simulator's hot region — every function reachable from a
// //nestedlint:hotpath annotation over static calls, devirtualized
// interface dispatch, and callback bindings, across package boundaries
// — upholds the invariants the per-package analyzers check one
// compilation unit at a time. Two independent engines must agree:
//
//   - the interprocedural engine re-derives the hot region from source
//     (callgraph.go) and applies hotpathalloc's allocation checks to
//     every member, plus reachability-based upgrades of detrange (the
//     deterministic region is what the deterministic packages *reach*,
//     not what they *contain*) and statsguard (the exemption is
//     "methods of stats-declared types", not "anything in the stats
//     package");
//
//   - the compiler engine replays the gc compiler's own escape analysis
//     and bounds-check elimination (gcdiag.go) and reconciles the
//     diagnostics against the same hot region: a value the optimizer
//     moved to the heap inside a proven-hot function is a finding even
//     if no source construct pattern-matched.
//
// A hot-path allocation has to slip past both engines to ship. Bounds
// checks are the one asymmetry: un-eliminated checks are endemic to
// cuckoo-probe index arithmetic (hundreds across the walkers) and cost
// cycles, not allocations, so they are advisories by default and only
// promote to findings under -strictbce.

// ProofSchema versions the report format for CI consumers.
const ProofSchema = "nestedlint-prove/v1"

// ProveOptions configures one proof run.
type ProveOptions struct {
	// ModuleDir is the module root (for module-relative positions and
	// the compiler run).
	ModuleDir string
	// ModulePath scopes -gcflags to module packages; resolved via
	// `go list -m` when empty.
	ModulePath string
	// Patterns are the build patterns for the compiler engine (default
	// ./...).
	Patterns []string
	// StrictBCE promotes un-eliminated bounds checks in hot functions
	// from advisories to findings.
	StrictBCE bool
	// SkipCompiler disables the compiler engine (graph-only proof).
	SkipCompiler bool
	// CompilerDiags, when non-nil, substitutes pre-parsed diagnostics
	// for a live build — the fixture path tests use.
	CompilerDiags []CompilerDiag
	// CompilerStats accompanies CompilerDiags.
	CompilerStats GCDiagStats
}

// ProofFinding is one blocking finding (or BCE advisory) in the report.
type ProofFinding struct {
	// Engine is "interproc" or "compiler".
	Engine string `json:"engine"`
	// Rule is the invariant violated: "alloc", "determinism", "stats",
	// "escape", "bce", "stale-annotation", or "directive".
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Func is the enclosing function; Root the hotpath annotation that
	// pulled it into the proven region (empty for region-independent
	// rules).
	Func    string `json:"func,omitempty"`
	Root    string `json:"root,omitempty"`
	Message string `json:"message"`
}

// CallGraphSummary sizes the whole-program graph for the report.
type CallGraphSummary struct {
	Functions          int `json:"functions"`
	Edges              int `json:"edges"`
	CrossPackageEdges  int `json:"crossPackageEdges"`
	DevirtualizedSites int `json:"devirtualizedSites"`
	FuncArgBindings    int `json:"funcArgBindings"`
}

// HotRegionSummary sizes the propagated hot region.
type HotRegionSummary struct {
	Roots                int      `json:"roots"`
	Functions            int      `json:"functions"`
	CrossPackageHotEdges int      `json:"crossPackageHotEdges"`
	RootNames            []string `json:"rootNames"`
}

// DevirtSummary is one devirtualized interface call site.
type DevirtSummary struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Caller    string   `json:"caller"`
	Interface string   `json:"interface"`
	Method    string   `json:"method"`
	Callees   []string `json:"callees"`
	// Hot marks sites inside the hot region — the ones whose callee
	// sets extend it.
	Hot bool `json:"hot"`
}

// CompilerSummary reports what the compiler engine saw.
type CompilerSummary struct {
	Ran        bool `json:"ran"`
	Lines      int  `json:"lines"`
	Recognized int  `json:"recognized"`
	Escapes    int  `json:"escapes"`
	Moved      int  `json:"moved"`
	Bounds     int  `json:"bounds"`
	// HotEscapes / HotBounds count diagnostics landing inside the hot
	// region before exemptions.
	HotEscapes int `json:"hotEscapes"`
	HotBounds  int `json:"hotBounds"`
}

// AgreementSummary cross-tabulates the two engines' allocation
// findings by file:line. Both engines flagging the same line is the
// strongest signal; either alone still blocks.
type AgreementSummary struct {
	Both         int `json:"both"`
	StaticOnly   int `json:"staticOnly"`
	CompilerOnly int `json:"compilerOnly"`
}

// ProofReport is the machine-readable artifact `nestedlint -prove`
// emits for CI.
type ProofReport struct {
	Schema        string           `json:"schema"`
	Toolchain     string           `json:"toolchain"`
	GCFlags       string           `json:"gcflags"`
	Packages      []string         `json:"packages"`
	CallGraph     CallGraphSummary `json:"callGraph"`
	HotRegion     HotRegionSummary `json:"hotRegion"`
	Devirtualized []DevirtSummary  `json:"devirtualized"`
	Compiler      CompilerSummary  `json:"compiler"`
	Findings      []ProofFinding   `json:"findings"`
	BCEAdvisories []ProofFinding   `json:"bceAdvisories"`
	Agreement     AgreementSummary `json:"agreement"`
}

// Passed reports whether the proof holds (no blocking findings).
func (r *ProofReport) Passed() bool { return len(r.Findings) == 0 }

// WriteJSON emits the report, indented, to w.
func (r *ProofReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// fileRef locates one parsed file for position arithmetic.
type fileRef struct {
	pkg  *Package
	file *ast.File
	tok  *token.File
}

// hotSpan is one hot function's line extent in a file.
type hotSpan struct {
	start, end int
	node       *FuncNode
}

// prover carries the shared state of one Prove run.
type prover struct {
	prog      *Program
	moduleDir string
	igs       map[*Package]*IgnoreSet
	files     map[string]fileRef // module-relative name → file
	spans     map[string][]hotSpan
	findings  []ProofFinding
}

// Prove runs both engines over one Load result and returns the report.
// The caller decides what to do with a failed proof; findings are in
// the report, not the error (which covers only infrastructure failures
// such as the compiler run itself breaking).
func Prove(pkgs []*Package, opts ProveOptions) (*ProofReport, error) {
	prog := BuildProgram(pkgs)
	pv := &prover{
		prog:      prog,
		moduleDir: opts.ModuleDir,
		igs:       map[*Package]*IgnoreSet{},
		files:     map[string]fileRef{},
		spans:     map[string][]hotSpan{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			tf := pkg.Fset.File(f.Pos())
			if tf == nil {
				continue
			}
			pv.files[moduleRelative(opts.ModuleDir, tf.Name())] = fileRef{pkg: pkg, file: f, tok: tf}
		}
	}
	for _, n := range prog.HotNodes() {
		var node ast.Node = ast.Node(n.Decl)
		if n.Decl == nil {
			node = n.Lit
		}
		start := prog.Fset.Position(node.Pos())
		end := prog.Fset.Position(node.End())
		file := moduleRelative(opts.ModuleDir, start.Filename)
		pv.spans[file] = append(pv.spans[file], hotSpan{start: start.Line, end: end.Line, node: n})
	}

	rep := &ProofReport{Schema: ProofSchema, GCFlags: GCDiagFlags}
	for _, pkg := range pkgs {
		rep.Packages = append(rep.Packages, pkg.Path)
	}
	pv.summarizeGraph(rep)

	// Engine 1: interprocedural propagation.
	pv.interprocAlloc()
	pv.interprocDetRange()
	pv.interprocStatsGuard()
	pv.staleAnnotations()
	pv.directiveConflicts()

	// Engine 2: compiler-diagnostic cross-check.
	diags, stats := opts.CompilerDiags, opts.CompilerStats
	ran := diags != nil
	if diags == nil && !opts.SkipCompiler {
		modulePath := opts.ModulePath
		if modulePath == "" {
			mp, err := ModulePath(opts.ModuleDir)
			if err != nil {
				return nil, err
			}
			modulePath = mp
		}
		var err error
		diags, stats, err = RunCompilerDiagnostics(opts.ModuleDir, modulePath, opts.Patterns...)
		if err != nil {
			return nil, err
		}
		rep.Toolchain = ToolchainVersion(opts.ModuleDir)
		ran = true
	}
	rep.Compiler = CompilerSummary{
		Ran:        ran,
		Lines:      stats.Lines,
		Recognized: stats.Recognized,
		Escapes:    stats.Escapes,
		Moved:      stats.Moved,
		Bounds:     stats.Bounds,
	}
	if ran {
		rep.BCEAdvisories = pv.reconcileCompiler(diags, opts.StrictBCE, &rep.Compiler)
	}

	rep.Findings = dedupFindings(pv.findings)
	rep.Agreement = agreement(rep.Findings)
	// CI consumers read proof.json; empty lists should be [], not null.
	if rep.Findings == nil {
		rep.Findings = []ProofFinding{}
	}
	if rep.BCEAdvisories == nil {
		rep.BCEAdvisories = []ProofFinding{}
	}
	return rep, nil
}

// summarizeGraph fills the call-graph and hot-region sections.
func (pv *prover) summarizeGraph(rep *ProofReport) {
	prog := pv.prog
	cg := CallGraphSummary{Functions: len(prog.Nodes()), Edges: len(prog.Edges), DevirtualizedSites: len(prog.Devirt)}
	hot := HotRegionSummary{}
	for _, e := range prog.Edges {
		if e.CrossPackage {
			cg.CrossPackageEdges++
		}
		if e.Kind == EdgeFuncArg {
			cg.FuncArgBindings++
		}
		if e.CrossPackage && e.Caller.Hot && e.Callee.Hot {
			hot.CrossPackageHotEdges++
		}
	}
	for _, n := range prog.HotNodes() {
		hot.Functions++
		if n.Annotated {
			hot.Roots++
			hot.RootNames = append(hot.RootNames, n.ShortName())
		}
	}
	rep.CallGraph = cg
	rep.HotRegion = hot
	for _, d := range prog.Devirt {
		pos := prog.Fset.Position(d.Pos)
		ds := DevirtSummary{
			File:      moduleRelative(pv.moduleDir, pos.Filename),
			Line:      pos.Line,
			Caller:    d.Caller.ShortName(),
			Interface: d.Interface,
			Method:    d.Method,
			Hot:       d.Caller.Hot,
		}
		for _, c := range d.Callees {
			ds.Callees = append(ds.Callees, c.ShortName())
		}
		rep.Devirtualized = append(rep.Devirtualized, ds)
	}
	sort.Slice(rep.Devirtualized, func(i, j int) bool {
		a, b := rep.Devirtualized[i], rep.Devirtualized[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
}

// ignoreSet lazily builds one package's //nestedlint:ignore index.
func (pv *prover) ignoreSet(pkg *Package) *IgnoreSet {
	ig, ok := pv.igs[pkg]
	if !ok {
		ig = NewIgnoreSet(pkg.Fset, pkg.Files)
		pv.igs[pkg] = ig
	}
	return ig
}

// suppressed honours ignore directives scoped to the originating
// analyzer, to "prove", or unscoped.
func (pv *prover) suppressed(pkg *Package, d Diagnostic) bool {
	ig := pv.ignoreSet(pkg)
	if ig.Suppressed(d) {
		return true
	}
	d.Analyzer = "prove"
	return ig.Suppressed(d)
}

// collect drains one pass's diagnostics into findings, applying ignore
// suppression.
func (pv *prover) collect(pass *Pass, pkg *Package, rule string, n *FuncNode) {
	for _, d := range pass.diags {
		if pv.suppressed(pkg, d) {
			continue
		}
		pos := pkg.Fset.Position(d.Pos)
		f := ProofFinding{
			Engine:  "interproc",
			Rule:    rule,
			File:    moduleRelative(pv.moduleDir, pos.Filename),
			Line:    pos.Line,
			Col:     pos.Column,
			Message: d.Message,
		}
		if n != nil {
			f.Func = n.ShortName()
			if n.Root != nil {
				f.Root = n.Root.ShortName()
			}
		}
		pv.findings = append(pv.findings, f)
	}
	pass.diags = nil
}

// provePass builds a one-shot Pass for body-level checks.
func provePass(a *Analyzer, pkg *Package) *Pass {
	return &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
}

// crossRootLabel names a node's hot root the way the diagnostic should
// read: bare within the root's own package, package-qualified across a
// boundary (the case the per-package analyzer cannot express).
func crossRootLabel(n *FuncNode) string {
	root := n.Root
	if root == nil {
		return ""
	}
	if root.Pkg == n.Pkg {
		return root.FuncName()
	}
	return root.Pkg.Types.Name() + "." + root.FuncName()
}

// interprocAlloc applies hotpathalloc's body checks to every member of
// the program-wide hot region — including functions whose own package
// never annotated anything and literals bound across a package
// boundary.
func (pv *prover) interprocAlloc() {
	for _, n := range pv.prog.HotNodes() {
		pass := provePass(HotpathAlloc, n.Pkg)
		root := crossRootLabel(n)
		if n.Decl != nil {
			checkHotDecl(pass, n.Decl, root)
		} else {
			checkHotLit(pass, n.Lit, root)
		}
		pv.collect(pass, n.Pkg, "alloc", n)
	}
}

// interprocDetRange upgrades detrange from "the deterministic packages"
// to "everything the deterministic packages reach": a helper in another
// package that ranges over a map feeds the same nondeterminism into the
// sweep output as one written in internal/sim itself.
func (pv *prover) interprocDetRange() {
	var roots []*FuncNode
	for _, n := range pv.prog.Nodes() {
		if deterministicPackages[n.Pkg.Path] {
			roots = append(roots, n)
		}
	}
	reached := pv.prog.ReachableFrom(roots)
	for _, n := range pv.prog.Nodes() {
		if !reached[n] || deterministicPackages[n.Pkg.Path] {
			// The deterministic packages themselves stay covered by the
			// per-package analyzer (which also sees package-level
			// declarations); prove adds only what reachability extends.
			continue
		}
		body := ast.Node(nil)
		if n.Decl != nil {
			body = n.Decl.Body
		} else {
			body = n.Lit.Body
		}
		pass := provePass(DetRange, n.Pkg)
		detInspect(pass, body)
		pv.collect(pass, n.Pkg, "determinism", n)
	}
}

// interprocStatsGuard upgrades statsguard's exemption from syntactic
// ("anything in the stats package") to semantic ("methods of
// stats-declared types"): a free function — wherever it lives — that
// pokes a counter's fields bypasses the API like any other caller.
func (pv *prover) interprocStatsGuard() {
	for _, n := range pv.prog.Nodes() {
		if n.Decl == nil || statsReceiverMethod(n) {
			continue
		}
		pass := provePass(StatsGuard, n.Pkg)
		statsInspect(pass, n.Decl.Body)
		pv.collect(pass, n.Pkg, "stats", n)
	}
}

// statsReceiverMethod reports whether a node is a method whose receiver
// type is declared in internal/stats — the holders of the invariants
// the fields encode, and the only code sanctioned to write them.
func statsReceiverMethod(n *FuncNode) bool {
	if n.Decl == nil || n.Decl.Recv == nil {
		return false
	}
	fn, ok := n.Pkg.Info.Defs[n.Decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == statsPkgPath
}

// directiveConflicts flags functions annotated both hotpath and
// coldpath — the proof cannot honour both claims, and silently letting
// one win would hide whichever the author meant.
func (pv *prover) directiveConflicts() {
	for _, n := range pv.prog.Nodes() {
		if !n.Annotated || !n.Cold {
			continue
		}
		pos := pv.prog.Fset.Position(n.Decl.Name.Pos())
		pv.findings = append(pv.findings, ProofFinding{
			Engine:  "interproc",
			Rule:    "directive",
			File:    moduleRelative(pv.moduleDir, pos.Filename),
			Line:    pos.Line,
			Col:     pos.Column,
			Func:    n.ShortName(),
			Message: fmt.Sprintf("%s carries both //nestedlint:hotpath and //nestedlint:coldpath; pick one", n.Decl.Name.Name),
		})
	}
}

// staleAnnotations turns graph-proven-idle hotpath directives into
// findings: an annotation nothing reaches misleads both the reader and
// the proof (its callees inherit hotness they do not have).
func (pv *prover) staleAnnotations() {
	for _, n := range pv.prog.StaleHotAnnotations() {
		pos := pv.prog.Fset.Position(n.Decl.Name.Pos())
		d := Diagnostic{Pos: n.Decl.Name.Pos(), Analyzer: "prove"}
		if pv.suppressed(n.Pkg, d) {
			continue
		}
		pv.findings = append(pv.findings, ProofFinding{
			Engine: "interproc",
			Rule:   "stale-annotation",
			File:   moduleRelative(pv.moduleDir, pos.Filename),
			Line:   pos.Line,
			Col:    pos.Column,
			Func:   n.ShortName(),
			Message: fmt.Sprintf("//nestedlint:hotpath on %s is stale: no loaded call path — static, devirtualized, or callback — reaches it",
				n.Decl.Name.Name),
		})
	}
}

// reconcileCompiler maps compiler diagnostics onto the hot region.
// Escapes and heap moves inside hot functions block (minus the
// cold-fault error exemption and ignore directives); un-eliminated
// bounds checks are advisories unless strictBCE. Returns the advisory
// list and updates the summary's hot counts.
func (pv *prover) reconcileCompiler(diags []CompilerDiag, strictBCE bool, sum *CompilerSummary) []ProofFinding {
	var advisories []ProofFinding
	for _, d := range diags {
		span, ok := pv.innermostHotSpan(d.File, d.Line)
		if !ok {
			continue
		}
		n := span.node
		finding := ProofFinding{
			Engine: "compiler",
			File:   d.File,
			Line:   d.Line,
			Col:    d.Col,
			Func:   n.ShortName(),
		}
		if n.Root != nil {
			finding.Root = n.Root.ShortName()
		}
		ref, pos, located := pv.locate(d)
		switch d.Kind {
		case DiagBoundsCheck:
			sum.HotBounds++
			finding.Rule = "bce"
			finding.Message = d.Message + " (bounds check not eliminated in hot path)"
			if located && pv.suppressed(ref.pkg, Diagnostic{Pos: pos, Analyzer: "prove"}) {
				continue
			}
			if strictBCE {
				pv.findings = append(pv.findings, finding)
			} else {
				advisories = append(advisories, finding)
			}
		case DiagEscape, DiagMoved:
			sum.HotEscapes++
			finding.Rule = "escape"
			finding.Message = d.Message + " (compiler escape analysis, in hot path " + n.FuncName() + ")"
			if located {
				// The cold-fault exemption hotpathalloc grants to error
				// construction applies to the compiler's view of the same
				// expression.
				if errorValueAt(ref.pkg.Info, ref.file, pos) {
					continue
				}
				if pv.suppressed(ref.pkg, Diagnostic{Pos: pos, Analyzer: "hotpathalloc"}) {
					continue
				}
			}
			pv.findings = append(pv.findings, finding)
		}
	}
	return advisories
}

// innermostHotSpan finds the tightest hot function enclosing file:line.
func (pv *prover) innermostHotSpan(file string, line int) (hotSpan, bool) {
	var best hotSpan
	found := false
	for _, s := range pv.spans[file] {
		if line < s.start || line > s.end {
			continue
		}
		if !found || s.end-s.start < best.end-best.start {
			best = s
			found = true
		}
	}
	return best, found
}

// locate converts a compiler diagnostic's file:line:col into a token.Pos
// inside the loaded AST.
func (pv *prover) locate(d CompilerDiag) (fileRef, token.Pos, bool) {
	ref, ok := pv.files[d.File]
	if !ok {
		return fileRef{}, token.NoPos, false
	}
	if d.Line < 1 || d.Line > ref.tok.LineCount() {
		return fileRef{}, token.NoPos, false
	}
	pos := ref.tok.LineStart(d.Line)
	if d.Col > 1 {
		shifted := pos + token.Pos(d.Col-1)
		if ref.tok.Base() <= int(shifted) && int(shifted) < ref.tok.Base()+ref.tok.Size() {
			pos = shifted
		}
	}
	return ref, pos, true
}

// errorValueAt reports whether the expression at pos (or an enclosing
// one) has a type implementing error — the compiler-side twin of
// hotpathalloc's cold-fault-path exemption for error construction.
func errorValueAt(info *types.Info, f *ast.File, pos token.Pos) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if !(n.Pos() <= pos && pos < n.End()) {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if t := info.TypeOf(e); t != nil {
				if isErrorType(t) || isErrorType(types.NewPointer(t)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// dedupFindings sorts and deduplicates (reachability can visit a
// literal both through its own node and its enclosing declaration).
func dedupFindings(fs []ProofFinding) []ProofFinding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		return a.Message < b.Message
	})
	out := fs[:0]
	seen := map[string]bool{}
	for _, f := range fs {
		key := fmt.Sprintf("%s|%s|%s:%d:%d|%s", f.Engine, f.Rule, f.File, f.Line, f.Col, f.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
	}
	return out
}

// agreement cross-tabulates allocation findings by file:line: the two
// engines prove the same invariant from independent directions, so a
// line both flag is doubly confirmed, and the one-engine buckets show
// each side's blind spots covered by the other.
func agreement(fs []ProofFinding) AgreementSummary {
	static := map[string]bool{}
	compiler := map[string]bool{}
	for _, f := range fs {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		switch {
		case f.Engine == "interproc" && f.Rule == "alloc":
			static[key] = true
		case f.Engine == "compiler" && f.Rule == "escape":
			compiler[key] = true
		}
	}
	var a AgreementSummary
	for k := range static {
		if compiler[k] {
			a.Both++
		} else {
			a.StaticOnly++
		}
	}
	for k := range compiler {
		if !static[k] {
			a.CompilerOnly++
		}
	}
	return a
}
