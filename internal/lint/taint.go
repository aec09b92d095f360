package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// taint.go is a forward, interprocedural taint engine over the call graph.
// A configured source classifier marks call expressions as taint roots;
// facts then propagate through assignments, composite literals, arithmetic,
// conversions, returns, and call arguments/receivers — across function
// boundaries via the parameter and result objects of module functions —
// until a fixpoint. Sinks (specific calls, or writes into specific struct
// types) report the SOURCE position, so one //lint:allow on the line that
// reads the clock (or constructs the stream) suppresses every flow it
// feeds, and responsibility sits where the value enters the program.
//
// Precision/soundness trade-offs (documented in DESIGN.md "Static
// analysis v2"):
//
//   - Granularity is the types.Object: variables, parameters, and results.
//     Struct fields are NOT tracked as shared objects — a field write
//     taints the container value it was written through, and a field read
//     is tainted iff its container is. Tracking field objects directly
//     (field-sensitive, instance-INsensitive) was tried first and rejected:
//     one tainted `entry.Time` write contaminated every Entry in the
//     module, cascading hundreds of findings into unrelated commands.
//     Instance-local containers lose cross-function aliasing flows (which
//     the engine never promised — no alias analysis) and nothing else.
//   - An object carries a SET of facts, one per distinct source. A shared
//     helper's parameter merges the taints of all its callers, so a
//     single-fact lattice would let whichever source reaches it first
//     shadow every other source flowing through it. Per-source facts keep
//     each (source, sink) pair independently reportable and suppressible.
//   - Results are summarized per call site, IFDS-style (Reps, Horwitz and
//     Sagiv, POPL 1995). Each parameter and receiver starts with a formal
//     pseudo-source standing for "whatever the caller passes"; a fact
//     passed in at a call site is tagged with the callee, reaches the
//     callee's sinks, and never leaves through its results. A call's
//     result is the callee's result facts with each of its formals
//     replaced by that site's argument taint. So a helper fed a clock
//     value by one caller and a constant by another taints only the
//     first caller's result, instead of every caller's facts merging
//     into every other caller's.
//     Pseudo-sources are never reported. A value stored where it outlives
//     the call (a package or captured variable, or storage reached through
//     the receiver or a parameter) drops its tag, since a later call may
//     return it to any caller.
//   - Calls into packages outside the module (stdlib) propagate
//     conservatively: a tainted argument or receiver taints the result,
//     so laundering through fmt.Sprintf, time.Time.Format, or strconv
//     stays visible. There are no sanitizers.
//   - Comparison and boolean operators stop propagation: branching on a
//     tainted value is not a data flow into an artifact (implicit flows
//     are out of scope).
//   - No alias analysis: writes through a pointer taint the pointer
//     variable's object, not other names for the same storage.
//
// Facts only ever accumulate, and there are finitely many (a source, and
// the callee it entered or none), so the fixpoint terminates. Rounds
// alternate callee-first and caller-first order, so a flow costs a round
// per change of direction, or per turn around a recursion cycle.

// taintMaxRounds caps fixpoint iterations (the module needs 5). Past it,
// the engine reports non-convergence at the module's first function; an
// allow at a source cannot suppress that report.
const taintMaxRounds = 64

// taintSource is one taint root (e.g. a time.Now() call site), or the
// formal pseudo-source of a parameter (formal set; index -1 is the
// receiver).
type taintSource struct {
	pos    token.Pos
	desc   string
	formal *FuncNode
	index  int
}

// taintFact records which source a value derives from and, when the value
// arrived through a callee's parameter, that callee.
type taintFact struct {
	src *taintSource
	in  *FuncNode
}

// factSet holds each distinct fact once. Sets only grow, so propagation
// is monotone and the fixpoint terminates.
type factSet []taintFact

// add installs f unless the set holds it; reports growth.
func (s factSet) add(f taintFact) (factSet, bool) {
	for _, have := range s {
		if have == f {
			return s, false
		}
	}
	return append(s, f), true
}

// merge unions two sets; reports growth.
func (s factSet) merge(other factSet) (factSet, bool) {
	n := len(s)
	for _, f := range other {
		s, _ = s.add(f)
	}
	return s, len(s) > n
}

// taintConfig parameterizes one engine run.
type taintConfig struct {
	// isSource classifies a call as a taint root.
	isSource func(info *types.Info, call *ast.CallExpr) (string, bool)
	// callSink classifies a call as a sink; a tainted argument or
	// receiver triggers report.
	callSink func(info *types.Info, call *ast.CallExpr) (string, bool)
	// structSinks maps "pkgpath.TypeName" to a description; assigning a
	// tainted value to any field of such a type (directly or in a
	// composite literal) triggers report.
	structSinks map[string]string

	// report receives each (source, sink) pair once.
	report func(src *taintSource, sinkPos token.Pos, sink string)
}

type taintEngine struct {
	cg  *CallGraph
	cfg *taintConfig

	objFacts map[types.Object]factSet
	retFacts map[ast.Node]factSet // FuncDecl/FuncLit → its results' summary
	srcPool  map[token.Pos]*taintSource
	reported map[[2]token.Pos]bool
	changed  bool
}

// runTaint drives one analysis over the module's call graph to a
// fixpoint. All iteration is over the deterministic call-graph order, so
// findings emerge in a stable order.
func runTaint(mp *ModulePass, cfg *taintConfig) {
	e := &taintEngine{
		cg:       mp.Mod.callGraph(),
		cfg:      cfg,
		objFacts: map[types.Object]factSet{},
		retFacts: map[ast.Node]factSet{},
		srcPool:  map[token.Pos]*taintSource{},
		reported: map[[2]token.Pos]bool{},
	}
	for _, fn := range e.cg.Funcs {
		if len(fn.ResultObjs) == 0 {
			continue // no result to summarize: a formal could only be noise
		}
		// Index -1 is the receiver.
		for i, obj := range append([]types.Object{fn.RecvObj}, fn.ParamObjs...) {
			if obj != nil {
				e.objFacts[obj] = factSet{{src: &taintSource{formal: fn, index: i - 1}}}
			}
		}
	}
	// Rounds alternate callee-first and caller-first order, so results
	// climb a call chain, and arguments descend it, in one round.
	order := e.cg.calleeFirst()
	for round := 0; round < taintMaxRounds; round++ {
		e.changed = false
		for _, fn := range order {
			e.walkFunc(fn)
		}
		if !e.changed {
			return
		}
		slices.Reverse(order)
	}
	if len(e.cg.Funcs) > 0 {
		mp.Reportf(e.cg.Funcs[0].Node.Pos(), "taint analysis did not converge within %d rounds; treat the module as unverified and simplify the offending flow", taintMaxRounds)
	}
}

// walkFunc applies the transfer functions of one function body, in
// source order. Nested literals are separate call-graph nodes and are
// skipped here.
func (e *taintEngine) walkFunc(fn *FuncNode) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			e.assign(fn, n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			e.assign(fn, lhs, n.Values)
		case *ast.ReturnStmt:
			e.handleReturn(fn, n)
		case *ast.RangeStmt:
			e.handleRange(fn, n)
		case *ast.CallExpr:
			e.handleCall(fn.Pkg, n)
		case *ast.CompositeLit:
			e.handleComposite(fn.Pkg, n)
		}
		return true
	})
}

// --- transfer functions ---

// assign taints each target of lhs = rhs. A single multi-value rhs
// (a, b := f()) taints every target.
func (e *taintEngine) assign(fn *FuncNode, lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		if len(rhs) == 1 {
			i = 0
		}
		if i >= len(rhs) {
			break
		}
		e.taintLValue(fn, l, e.taintOf(fn.Pkg, rhs[i]), false)
	}
}

func (e *taintEngine) handleReturn(fn *FuncNode, rs *ast.ReturnStmt) {
	if len(rs.Results) == 0 {
		// Bare return: named results carry whatever they were assigned.
		for _, obj := range fn.ResultObjs {
			e.setRetFacts(fn, e.objFacts[obj]) // nil (unnamed) has no facts
		}
		return
	}
	for _, res := range rs.Results {
		e.setRetFacts(fn, e.taintOf(fn.Pkg, res))
	}
}

func (e *taintEngine) handleRange(fn *FuncNode, rs *ast.RangeStmt) {
	fs := e.taintOf(fn.Pkg, rs.X)
	e.taintLValue(fn, rs.Key, fs, false) // a nil Key or Value takes nothing
	e.taintLValue(fn, rs.Value, fs, false)
}

// handleCall performs the side effects of a call site: sink detection and
// propagation into a module callee's parameters, tagged with the callee.
func (e *taintEngine) handleCall(pkg *Package, call *ast.CallExpr) {
	if desc, ok := e.cfg.callSink(pkg.Info, call); ok {
		for _, f := range e.argOrRecvTaint(pkg, call) {
			e.reportSink(f.src, call.Pos(), desc)
		}
	}
	fn := e.cg.callee(pkg.Info, call)
	if fn == nil {
		return
	}
	e.setObjFacts(fn.RecvObj, retag(e.actual(pkg, call, fn, -1), fn))
	for i, param := range fn.ParamObjs {
		e.setObjFacts(param, retag(e.actual(pkg, call, fn, i), fn))
	}
}

// actual is the taint a call passes fn for parameter index (-1: the
// receiver). A variadic parameter takes every trailing argument.
func (e *taintEngine) actual(pkg *Package, call *ast.CallExpr, fn *FuncNode, index int) factSet {
	if index < 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn.RecvObj != nil {
			return e.taintOf(pkg, sel.X)
		}
		return nil
	}
	args := call.Args
	if index >= len(args) {
		return nil
	}
	if !fn.Variadic || index < len(fn.ParamObjs)-1 {
		return e.taintOf(pkg, args[index])
	}
	var fs factSet
	for _, a := range args[index:] {
		fs, _ = fs.merge(e.taintOf(pkg, a))
	}
	return fs
}

// retag tags the real facts of fs with fn (nil: no callee) and drops the
// pseudo-sources, which stand for real facts fs also carries.
func retag(fs factSet, fn *FuncNode) factSet {
	var out factSet
	for _, f := range fs {
		if f.src.formal == nil {
			out, _ = out.add(taintFact{src: f.src, in: fn})
		}
	}
	return out
}

// summary applies fn's result summary at one call site: fn's own formals
// become the site's argument taints, and every other fact passes as is.
func (e *taintEngine) summary(pkg *Package, call *ast.CallExpr, fn *FuncNode) factSet {
	var out factSet
	for _, f := range e.retFacts[fn.Node] {
		if f.src.formal == fn {
			out, _ = out.merge(e.actual(pkg, call, fn, f.src.index))
		} else {
			out, _ = out.add(f)
		}
	}
	return out
}

// handleComposite reports tainted elements of sink-typed literals.
func (e *taintEngine) handleComposite(pkg *Package, cl *ast.CompositeLit) {
	desc, ok := e.structSinkType(pkg.Info.Types[cl].Type)
	if !ok {
		return
	}
	for _, elt := range cl.Elts {
		v := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		for _, f := range e.taintOf(pkg, v) {
			e.reportSink(f.src, v.Pos(), desc)
		}
	}
}

// taintLValue records that the storage behind l now holds tainted values.
// indirect marks a write through a field, an element or a pointer.
func (e *taintEngine) taintLValue(fn *FuncNode, l ast.Expr, fs factSet, indirect bool) {
	info := fn.Pkg.Info
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if obj != nil && outlives(fn, obj, indirect) {
			// A later call may return the stored value to any caller, so
			// the facts lose their callee tags.
			fs = retag(fs, nil)
		}
		e.setObjFacts(obj, fs)
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				e.taintLValue(fn, l.Sel, fs, false) // pkg.Var = v writes the variable
				return
			}
		}
		// x.F = v: sink check on F's owner, then taint the container so
		// later uses of x (passing it to a writer, returning it) carry the
		// fact. The field object itself is deliberately not tracked — see
		// the package comment on instance-locality.
		if desc, ok := e.structSinkType(info.TypeOf(l.X)); ok {
			for _, f := range fs {
				e.reportSink(f.src, l.Sel.Pos(), desc)
			}
		}
		e.taintLValue(fn, l.X, fs, true)
	case *ast.IndexExpr:
		e.taintLValue(fn, l.X, fs, true) // element write taints the container
	case *ast.StarExpr:
		e.taintLValue(fn, l.X, fs, true) // *p = v taints p (no alias analysis)
	}
}

// outlives reports whether a write to obj survives fn's call: obj is a
// package or captured variable, or the write goes through fn's receiver,
// a parameter or a result, whose storage the caller may share.
func outlives(fn *FuncNode, obj types.Object, indirect bool) bool {
	p := obj.Pos()
	return p < fn.Node.Pos() || p >= fn.Node.End() || indirect && p < fn.Body.Pos()
}

// --- expression taint (side-effect free) ---

func (e *taintEngine) taintOf(pkg *Package, x ast.Expr) factSet {
	info := pkg.Info
	switch x := x.(type) {
	case *ast.ParenExpr:
		return e.taintOf(pkg, x.X)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return nil
		}
		return e.objFacts[obj]
	case *ast.SelectorExpr:
		// A field read is tainted iff its container is (instance-local);
		// a package-qualified name (pkg.Var) resolves through the object.
		if fs := e.taintOf(pkg, x.X); len(fs) > 0 {
			return fs
		}
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if obj := info.Uses[x.Sel]; obj != nil {
					return e.objFacts[obj]
				}
			}
		}
		return nil
	case *ast.CallExpr:
		return e.callTaint(pkg, x)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return nil // booleans do not carry the value
		}
		fs, _ := e.taintOf(pkg, x.X).merge(e.taintOf(pkg, x.Y))
		return fs
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return nil
		}
		return e.taintOf(pkg, x.X)
	case *ast.StarExpr:
		return e.taintOf(pkg, x.X)
	case *ast.IndexExpr:
		return e.taintOf(pkg, x.X)
	case *ast.IndexListExpr:
		return e.taintOf(pkg, x.X)
	case *ast.SliceExpr:
		return e.taintOf(pkg, x.X)
	case *ast.TypeAssertExpr:
		return e.taintOf(pkg, x.X)
	case *ast.KeyValueExpr:
		return e.taintOf(pkg, x.Value)
	case *ast.CompositeLit:
		var fs factSet
		for _, elt := range x.Elts {
			fs, _ = fs.merge(e.taintOf(pkg, elt)) // a KeyValueExpr yields its value's
		}
		return fs
	case *ast.FuncLit:
		// The literal as a value: calling it later yields its return taint.
		return e.retFacts[x]
	}
	return nil
}

// callTaint computes the taint of a call expression's result.
func (e *taintEngine) callTaint(pkg *Package, call *ast.CallExpr) factSet {
	info := pkg.Info
	if desc, ok := e.cfg.isSource(info, call); ok {
		src := e.srcPool[call.Pos()]
		if src == nil {
			src = &taintSource{pos: call.Pos(), desc: desc}
			e.srcPool[call.Pos()] = src
		}
		return factSet{{src: src}}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): taint passes through.
		if len(call.Args) == 1 {
			return e.taintOf(pkg, call.Args[0])
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "min", "max":
				var fs factSet
				for _, a := range call.Args {
					fs, _ = fs.merge(e.taintOf(pkg, a))
				}
				return fs
			}
			// len, cap, make, new, delete, copy, ... yield no tainted value.
			return nil
		}
	}
	if fn := e.cg.callee(pkg.Info, call); fn != nil {
		return e.summary(pkg, call, fn)
	}
	// A function without a body in the module, or an indirect call
	// through a variable or field: conservatively, whatever the function
	// value, the receiver or an argument carries.
	fs, _ := e.taintOf(pkg, call.Fun).merge(e.argOrRecvTaint(pkg, call))
	return fs
}

// argOrRecvTaint unions the taints of a call's receiver and arguments.
func (e *taintEngine) argOrRecvTaint(pkg *Package, call *ast.CallExpr) factSet {
	var fs factSet
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := pkg.Info.Selections[sel]; isMethod {
			fs, _ = fs.merge(e.taintOf(pkg, sel.X))
		}
	}
	for _, a := range call.Args {
		fs, _ = fs.merge(e.taintOf(pkg, a))
	}
	return fs
}

// --- fact bookkeeping ---

// setObjFacts unions facts into an object's set. Sets only grow,
// guaranteeing a monotone fixpoint.
func (e *taintEngine) setObjFacts(obj types.Object, fs factSet) {
	if len(fs) == 0 || obj == nil {
		return
	}
	merged, grew := e.objFacts[obj].merge(fs)
	if grew {
		e.objFacts[obj] = merged
		e.changed = true
	}
}

// setRetFacts adds facts to fn's result summary, except those passed in
// through fn's own parameters: a call site's result gets those from its
// own arguments, through fn's formals.
func (e *taintEngine) setRetFacts(fn *FuncNode, fs factSet) {
	var out factSet
	for _, f := range fs {
		if f.in != fn {
			out = append(out, f)
		}
	}
	if merged, grew := e.retFacts[fn.Node].merge(out); grew {
		e.retFacts[fn.Node] = merged
		e.changed = true
	}
}

// reportSink reports a real source reaching a sink, once per pair.
func (e *taintEngine) reportSink(src *taintSource, sinkPos token.Pos, desc string) {
	key := [2]token.Pos{src.pos, sinkPos}
	if src.formal != nil || e.reported[key] {
		return
	}
	e.reported[key] = true
	e.cfg.report(src, sinkPos, desc)
}

// structSinkType matches a (possibly pointer) named struct type against
// the configured sinks.
func (e *taintEngine) structSinkType(t types.Type) (string, bool) {
	if len(e.cfg.structSinks) == 0 || t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	desc, ok := e.cfg.structSinks[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
	return desc, ok
}
