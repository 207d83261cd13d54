package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AddrSpace enforces the typed-address discipline of internal/addr:
// guest virtual (GVA), guest physical (GPA), and host physical (HPA)
// addresses are distinct types, and the only sanctioned ways to move a
// value between spaces — or between a space and raw uint64 — are the
// helpers of internal/addr (Translate, IdentityHPA, Add, VPN, and the
// other arithmetic that erases to space-free indices by construction).
//
// Everywhere else, a conversion touching a domain type is a finding:
//
//   - a cross-domain conversion such as addr.HPA(gpa) fabricates a
//     host-physical address out of a guest-physical one — the exact
//     bug class of feeding a gPA to the memory hierarchy where an hPA
//     belongs;
//   - minting a domain from raw uint64 (addr.GVA(x)) launders an
//     untracked integer into the typed world;
//   - erasing a domain to raw uint64 (uint64(gva)) drops the space so
//     the compiler can no longer tell it apart downstream.
//
// The analyzer also rejects addr.Translate instantiations that cross
// backwards: nested translation only ever moves gVA→gPA→hPA, so a
// Translate producing a GVA from a GPA (or a GPA from an HPA) is a
// walker bug, not a crossing.
//
// Escape hatch: a function whose doc comment carries
//
//	//nestedlint:domaincast <reason>
//
// may convert freely in its body — for the handful of places that
// genuinely reinterpret address bits, such as DRAM row/bank
// interleaving or statistics that record space-free magnitudes. The
// reason is mandatory; a bare directive is itself a finding, as is a
// directive placed anywhere but a function's doc comment.
//
// Deliberate exemptions: untyped constants (a literal has no space
// yet), conversions involving type parameters (the generic containers
// of memsim/mmucache/radix/ecpt are domain-preserving by
// construction), interface boxing (fmt verbs print typed addresses
// directly), and internal/addr itself — the trusted kernel the rest of
// the tree builds on. Test files are never analyzed (the loader skips
// them), so tests may cast freely when staging fixtures.
var AddrSpace = &Analyzer{
	Name:      "addrspace",
	Doc:       "forbid unsanctioned conversions between the GVA/GPA/HPA address spaces or between a space and raw uint64",
	AppliesTo: func(path string) bool { return path != addrPkgPath },
	Run:       runAddrSpace,
}

const (
	addrPkgPath         = "nestedecpt/internal/addr"
	domaincastDirective = "//nestedlint:domaincast"
)

// domainRank orders the address spaces along the translation chain
// gVA→gPA→hPA. Crossings must not decrease rank.
var domainRank = map[string]int{"GVA": 0, "GPA": 1, "HPA": 2}

// domainName returns the address-space name of t ("GVA", "GPA", or
// "HPA") or "" when t is not one of internal/addr's domain types.
func domainName(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != addrPkgPath {
		return ""
	}
	if _, ok := domainRank[obj.Name()]; !ok {
		return ""
	}
	return obj.Name()
}

// isRawUint64 reports whether t is the predeclared uint64 (not a named
// type whose underlying happens to be uint64).
func isRawUint64(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// isTypeParam reports whether t is a type parameter: conversions in
// generic code are domain-preserving by instantiation and exempt.
func isTypeParam(t types.Type) bool {
	_, ok := types.Unalias(t).(*types.TypeParam)
	return ok
}

// HasDomaincastDirective returns the reason of a function's
// //nestedlint:domaincast doc directive. ok reports whether the
// directive is present at all; a present directive with an empty
// reason is the bare (invalid) form.
func HasDomaincastDirective(decl *ast.FuncDecl) (reason string, ok bool) {
	if decl.Doc == nil {
		return "", false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == domaincastDirective {
			return "", true
		}
		if strings.HasPrefix(text, domaincastDirective+" ") {
			return strings.TrimSpace(strings.TrimPrefix(text, domaincastDirective)), true
		}
	}
	return "", false
}

// argContext names the call argument a conversion feeds, for the
// gPA-as-hPA class of diagnostic.
type argContext struct {
	callee string // function or method name
	param  string // parameter type as declared
}

func runAddrSpace(pass *Pass) error {
	// Pass 1: collect the domaincast-annotated functions (the per-
	// function whitelist) and flag invalid directive forms.
	allowed := make(map[*ast.FuncDecl]bool)
	docDirectives := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			reason, has := HasDomaincastDirective(fd)
			if !has {
				continue
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(strings.TrimSpace(c.Text), domaincastDirective) {
						docDirectives[c.Pos()] = true
					}
				}
			}
			if reason == "" {
				pass.Reportf(fd.Pos(), "//nestedlint:domaincast requires a reason explaining why reinterpreting the address space is sound")
				continue
			}
			allowed[fd] = true
		}
	}
	// A domaincast directive anywhere but a function's doc comment is
	// dead: it whitelists nothing and misleads the reader.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), domaincastDirective) && !docDirectives[c.Pos()] {
					pass.Reportf(c.Pos(), "//nestedlint:domaincast must be the doc comment of the function performing the cast")
				}
			}
		}
	}

	// Pass 2: record the argument position every expression occupies in
	// an ordinary (non-conversion) call, so a conversion used directly
	// as an argument can name the parameter it launders into.
	argOf := collectArgContexts(pass)

	// Pass 3: flag unsanctioned conversions and backward Translate
	// crossings outside domaincast-annotated functions.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && allowed[fd] {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkTranslateDirection(pass, call)
				checkConversion(pass, call, argOf)
				return true
			})
		}
	}
	return nil
}

// collectArgContexts maps every ordinary call argument to the callee
// and declared parameter type it feeds. Shared with the escape audit,
// which re-probes domaincast-annotated bodies.
func collectArgContexts(pass *Pass) map[ast.Expr]argContext {
	argOf := make(map[ast.Expr]argContext)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
				return true // a conversion, not a call
			}
			sig := callSignature(pass.Info, call)
			if sig == nil {
				return true
			}
			name := calleeName(call)
			for i, arg := range call.Args {
				pi := i
				if sig.Variadic() && pi >= sig.Params().Len()-1 {
					pi = sig.Params().Len() - 1
				}
				if pi >= sig.Params().Len() {
					continue
				}
				argOf[arg] = argContext{callee: name, param: sig.Params().At(pi).Type().String()}
			}
			return true
		})
	}
	return argOf
}

// checkConversion flags call when it is a type conversion that crosses
// an address-space boundary outside the sanctioned helpers.
func checkConversion(pass *Pass, call *ast.CallExpr, argOf map[ast.Expr]argContext) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := tv.Type
	argTV, ok := pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	if argTV.Value != nil {
		return // untyped constants carry no space yet
	}
	src := argTV.Type
	if isTypeParam(dst) || isTypeParam(src) {
		return // generic containers are domain-preserving by instantiation
	}
	dDst, dSrc := domainName(dst), domainName(src)
	switch {
	case dDst != "" && dSrc != "" && dDst != dSrc:
		if ctx, ok := argOf[ast.Expr(call)]; ok {
			pass.Reportf(call.Pos(),
				"passing addr.%s where %s expects %s reinterprets the address space; cross through addr.Translate or addr.IdentityHPA, or annotate the function //nestedlint:domaincast <reason>",
				dSrc, ctx.callee, ctx.param)
			return
		}
		pass.Reportf(call.Pos(),
			"conversion addr.%s→addr.%s reinterprets the address space; cross through addr.Translate or addr.IdentityHPA, or annotate the function //nestedlint:domaincast <reason>",
			dSrc, dDst)
	case dDst != "" && isRawUint64(src):
		pass.Reportf(call.Pos(),
			"minting addr.%s from raw uint64 launders an untracked integer into the typed address world; allocate through memsim, compose with addr.Add/addr.Translate, or annotate the function //nestedlint:domaincast <reason>",
			dDst)
	case dSrc != "" && isRawUint64(dst):
		pass.Reportf(call.Pos(),
			"erasing addr.%s to raw uint64 drops the address space; use the generic addr helpers (VPN, PageOffset, CacheLine, ...) or annotate the function //nestedlint:domaincast <reason>",
			dSrc)
	}
}

// checkTranslateDirection flags addr.Translate instantiations whose
// crossing runs against the gVA→gPA→hPA chain.
func checkTranslateDirection(pass *Pass, call *ast.CallExpr) {
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != addrPkgPath || fn.Name() != "Translate" {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := types.Unalias(tv.Type).(*types.Signature)
	if !ok || sig.Results().Len() != 1 || sig.Params().Len() != 3 {
		return
	}
	dDst := domainName(sig.Results().At(0).Type())
	dSrc := domainName(sig.Params().At(1).Type())
	if dDst == "" || dSrc == "" {
		return
	}
	if domainRank[dDst] < domainRank[dSrc] {
		pass.Reportf(call.Pos(),
			"addr.Translate crosses backwards (addr.%s→addr.%s); nested translation only moves gVA→gPA→hPA",
			dSrc, dDst)
	}
}

// callSignature resolves the declared signature of an ordinary call,
// including calls through interfaces and method values.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := types.Unalias(tv.Type).(*types.Signature)
	if !ok {
		return nil
	}
	return sig
}

// calleeName renders the called function's name for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.IndexExpr:
		return calleeName(&ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeName(&ast.CallExpr{Fun: fun.X})
	}
	return "the call"
}
