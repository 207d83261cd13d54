package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotpathAlloc enforces the simulator's central performance invariant:
// functions marked //nestedlint:hotpath — the steady-state walk, probe,
// MMU-cache, and DRAM paths — and everything they call within their own
// package must not heap-allocate. The runtime counterpart is the
// testing.AllocsPerRun pins in alloc_test.go; this analyzer fails the
// build at the construct, not the symptom.
//
// Flagged constructs: make/new, slice and map literals, &T{...}
// composite literals, append outside caller-owned scratch (the first
// argument must be a parameter or a field of the receiver), map
// writes, fmt/errors calls, string concatenation, string<->[]byte
// conversions, closures, go statements, and implicit conversions of
// non-pointer concrete values to interfaces (boxing).
//
// Three escapes are deliberate: composite literals of error types are
// exempt (fault returns are cold — the simulator pre-faults pages
// before timed walks), //nestedlint:ignore suppresses a line with a
// stated justification, and //nestedlint:coldpath on a callee stops
// hot propagation at a justified slow-path boundary (first-touch
// allocation, copy-on-write, panic formatting). Function literals and
// method values passed as arguments to a hot function are treated as
// hot themselves — a callback handed to the hot path is invoked on it.
// Propagation never crosses a package or an interface call, so a hot
// function entered that way — an addr helper, a stats update, a
// HostDim implementation — carries its own //nestedlint:hotpath where
// it is declared. A function annotated both hotpath and coldpath is a
// finding: one of the two claims is wrong.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap allocation in //nestedlint:hotpath functions and their intra-package callees",
	Run:  runHotpathAlloc,
}

// hotItem is one body the hot-region fixpoint tracks: a declared
// function, or a function literal bound to a hot callee as a callback.
type hotItem struct {
	decl *ast.FuncDecl
	lit  *ast.FuncLit
}

// boundArg records a function-shaped argument at one call site: the
// statically resolved callee it was passed to, and the argument's own
// identity (a literal, or the declaration a method/function value
// names).
type boundArg struct {
	callee *types.Func
	item   hotItem
}

func runHotpathAlloc(pass *Pass) error {
	root := hotRegion(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if HasBareColdpathDirective(fd) {
				pass.Reportf(fd.Name.Pos(), "//nestedlint:coldpath requires a justification explaining why %s is unreachable in the steady state", fd.Name.Name)
			}
			if HasHotpathDirective(fd) && HasColdpathDirective(fd) {
				pass.Reportf(fd.Name.Pos(), "%s carries both //nestedlint:hotpath and //nestedlint:coldpath; pick one", fd.Name.Name)
			}
			if from, ok := root[fd]; ok {
				checkHotDecl(pass, fd, from)
			}
		}
	}
	// Literals in deterministic order: file position.
	var lits []*ast.FuncLit
	for key := range root {
		if lit, ok := key.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i].Pos() < lits[j].Pos() })
	for _, lit := range lits {
		checkHotLit(pass, lit, root[lit])
	}
	return nil
}

// hotRegion computes the package's hot set: every declaration and
// callback literal reachable from a //nestedlint:hotpath annotation,
// mapped to the name of the annotated root that reached it.
func hotRegion(pass *Pass) map[ast.Node]string {
	decls := map[*types.Func]*ast.FuncDecl{}
	var order []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
					order = append(order, fd)
				}
			}
		}
	}

	// Collect every function-shaped argument in the package up front:
	// the fixpoint below consults them whenever a callee turns hot, so
	// a callback reaches the hot set even when its binding site is in a
	// cold function (w.forEach(func(…){…}) with forEach hot).
	bindings := collectFuncArgBindings(pass, decls)

	// Seed the hot set with annotated functions, then propagate to a
	// fixpoint along static intra-package calls and callback bindings:
	// a helper reached from a hot path is a hot path, and so is a
	// literal or method value handed to one.
	root := map[ast.Node]string{}
	var queue []hotItem
	markHot := func(it hotItem, from string) {
		// //nestedlint:coldpath is the sanctioned boundary: first-touch,
		// copy-on-write, panic, and overflow slow paths stop the fixpoint.
		if it.decl != nil && HasColdpathDirective(it.decl) {
			return
		}
		key := ast.Node(it.decl)
		if it.decl == nil {
			key = it.lit
		}
		if _, seen := root[key]; seen {
			return
		}
		root[key] = from
		queue = append(queue, it)
	}
	for _, fd := range order {
		if HasHotpathDirective(fd) {
			markHot(hotItem{decl: fd}, fd.Name.Name)
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		key := ast.Node(it.decl)
		body := ast.Node(nil)
		if it.decl != nil {
			body = it.decl.Body
		} else {
			key = it.lit
			body = it.lit.Body
		}
		from := root[key]
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit != it.lit {
				// A literal inside a hot body is already flagged as an
				// allocation by checkHotBody; its body is not entered
				// here (the closure may never run on the hot path).
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.Info, call)
			if callee == nil {
				return true
			}
			if target, ok := decls[callee]; ok {
				markHot(hotItem{decl: target}, from)
			}
			return true
		})
		// Callbacks bound to this item, if it is a declared function.
		if it.decl != nil {
			if fn, ok := pass.Info.Defs[it.decl.Name].(*types.Func); ok {
				for _, b := range bindings[fn] {
					markHot(b.item, from)
				}
			}
		}
	}
	return root
}

// collectFuncArgBindings indexes, per statically resolved callee, the
// function literals and intra-package function/method values passed to
// it anywhere in the package.
func collectFuncArgBindings(pass *Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func][]boundArg {
	bindings := map[*types.Func][]boundArg{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.Info, call)
			if callee == nil {
				return true
			}
			for _, arg := range call.Args {
				switch a := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					bindings[callee] = append(bindings[callee], boundArg{callee: callee, item: hotItem{lit: a}})
				case *ast.Ident:
					if fn, ok := pass.Info.Uses[a].(*types.Func); ok {
						if target, ok := decls[fn]; ok {
							bindings[callee] = append(bindings[callee], boundArg{callee: callee, item: hotItem{decl: target}})
						}
					}
				case *ast.SelectorExpr:
					if fn, ok := pass.Info.Uses[a.Sel].(*types.Func); ok {
						if target, ok := decls[fn]; ok {
							bindings[callee] = append(bindings[callee], boundArg{callee: callee, item: hotItem{decl: target}})
						}
					}
				}
			}
			return true
		})
	}
	return bindings
}

// staticCallee resolves a call to the *types.Func it statically
// invokes, or nil for builtins, conversions, and dynamic calls. A call
// of a generic function or method (f[T](…) included) resolves to its
// origin, the object the declaration's Defs entry holds.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if f, ok := info.Uses[id].(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

// checkHotDecl reports every allocating construct in one hot declared
// function.
func checkHotDecl(pass *Pass, fd *ast.FuncDecl, root string) {
	where := fd.Name.Name
	if where != root {
		where += " (reached from hotpath " + root + ")"
	}
	params, recv, sig := declHotContext(pass, fd)
	checkHotBody(pass, fd.Body, where, params, recv, sig)
}

// declHotContext gathers a declared function's caller-owned scratch
// set (receiver, parameters, fields of the receiver — the legitimate
// append targets) and its signature for return-boxing checks.
func declHotContext(pass *Pass, fd *ast.FuncDecl) (params map[types.Object]bool, recv types.Object, sig *types.Signature) {
	params = map[types.Object]bool{}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recv = pass.Info.Defs[fd.Recv.List[0].Names[0]]
		params[recv] = true
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			params[pass.Info.Defs[name]] = true
		}
	}
	if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		sig = fn.Type().(*types.Signature)
	}
	return params, recv, sig
}

// checkHotLit reports every allocating construct in a function literal
// that reached the hot set as a callback to a hot function. Its own
// parameters count as caller-owned scratch, exactly as a declared
// function's do.
func checkHotLit(pass *Pass, lit *ast.FuncLit, root string) {
	where := "func literal (reached from hotpath " + root + ")"
	params := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params[pass.Info.Defs[name]] = true
		}
	}
	sig, _ := pass.Info.TypeOf(lit).(*types.Signature)
	checkHotBody(pass, lit.Body, where, params, nil, sig)
}

// checkHotBody reports the allocating constructs of one hot body —
// declared function, method, or callback literal.
func checkHotBody(pass *Pass, body ast.Node, where string, params map[types.Object]bool, recv types.Object, sig *types.Signature) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in hot path %s", what, where)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n, params, recv, report)
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if !isErrorType(pass.Info.TypeOf(n)) {
						report(lit.Pos(), "&composite literal escapes to the heap")
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := pass.Info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
						report(lhs.Pos(), "map write allocates and re-hashes")
					}
				}
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if boxes(pass.Info, n.Rhs[i], pass.Info.TypeOf(n.Lhs[i])) {
						report(n.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if _, isMap := pass.Info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
					report(n.Pos(), "map write allocates and re-hashes")
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					if boxes(pass.Info, res, sig.Results().At(i).Type()) {
						report(res.Pos(), "return boxes a concrete value into an interface")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := pass.Info.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "closure allocates")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

// checkHotCall handles the call-shaped allocation sources: builtins,
// conversions, banned packages, and argument boxing.
func checkHotCall(pass *Pass, call *ast.CallExpr, params map[types.Object]bool, recv types.Object, report func(token.Pos, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !isScratch(pass.Info, call.Args[0], params, recv) {
					report(call.Pos(), "append outside caller-owned scratch allocates")
				}
			}
			return
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if allocatingConversion(tv.Type, pass.Info.TypeOf(call.Args[0])) {
			report(call.Pos(), "string/byte-slice conversion allocates")
		}
		return
	}
	if callee := staticCallee(pass.Info, call); callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt", "errors":
			report(call.Pos(), "call to "+callee.Pkg().Path()+"."+callee.Name()+" allocates")
			return
		}
	}
	if sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature); ok {
		checkArgBoxing(pass, call, sig, report)
	}
}

// checkArgBoxing flags arguments implicitly converted to interface
// parameters — each such conversion of a non-pointer value allocates.
func checkArgBoxing(pass *Pass, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string)) {
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a spread slice passes through unboxed
			}
			paramType = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			paramType = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(pass.Info, arg, paramType) {
			report(arg.Pos(), "argument boxes a concrete value into an interface")
		}
	}
}

// isScratch reports whether expr denotes caller-owned scratch: a
// parameter (or a re-slicing of one) or a field of the receiver.
func isScratch(info *types.Info, expr ast.Expr, params map[types.Object]bool, recv types.Object) bool {
	e := ast.Unparen(expr)
	for {
		s, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(s.X)
	}
	switch x := e.(type) {
	case *ast.Ident:
		return params[info.ObjectOf(x)]
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			return recv != nil && info.ObjectOf(base) == recv
		}
	}
	return false
}

// allocatingConversion reports conversions that copy memory:
// string <-> []byte/[]rune in either direction.
func allocatingConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

// boxes reports whether assigning expr to a destination of type dst
// wraps a non-pointer concrete value in an interface, which allocates.
// Pointer-shaped values (pointers, maps, channels, functions) fit in
// the interface word without copying.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[ast.Unparen(expr)]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	return true
}

// isErrorType reports whether t implements the error interface — the
// cold-fault-path exemption for composite literals.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}
