package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// callgraph.go builds a deterministic, module-wide static call graph: one
// node per function body (declared functions, methods, and function
// literals), one edge per statically resolvable call site. It is the
// substrate the taint engine (taint.go) propagates facts over, and its
// construction touches no map iteration on the output path, so two builds
// over the same Module serialize byte-identically (asserted by
// TestCallGraphDeterminism).
//
// Resolution is intentionally static-only: calls through interface values,
// function-typed variables, and fields have no edge. The taint engine
// compensates with a conservative rule at such sites (tainted arguments
// taint the call result), so the missing edges lose precision, never
// soundness of the source→sink directions the analyzers check.

// FuncNode is one function body in the call graph.
type FuncNode struct {
	// ID is a stable human-readable identifier: the types.Func FullName
	// for declared functions/methods ("repro/internal/core.(*TwoLevelModel).Save"),
	// or the enclosing ID plus "$n" for the n-th function literal.
	ID   string
	Pkg  *Package
	Node ast.Node // *ast.FuncDecl or *ast.FuncLit
	Body *ast.BlockStmt

	// Obj is the declared function object; nil for function literals.
	Obj *types.Func

	// RecvObj is the receiver variable (methods only), ParamObjs the
	// declared parameters in order, ResultObjs the named results (nil
	// entries for unnamed). Variadic marks a trailing ...T parameter.
	RecvObj    types.Object
	ParamObjs  []types.Object
	ResultObjs []types.Object
	Variadic   bool

	// Calls lists the body's statically resolved call sites in source
	// order.
	Calls []CallEdge
}

// CallEdge is one statically resolved call site.
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
}

// CallGraph is the module-wide graph. Funcs are in deterministic source
// order (packages topologically, files as loaded, declarations top to
// bottom, literals by position within their parent).
type CallGraph struct {
	Funcs []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// BuildCallGraph constructs the graph over every type-checked package of
// the module.
func BuildCallGraph(mod *Module) *CallGraph {
	cg := &CallGraph{
		byObj: map[*types.Func]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Types == nil {
			continue // test-only directory, not type-checked
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					node := cg.addDecl(pkg, d)
					cg.collectLits(pkg, node.ID, d.Body)
				case *ast.GenDecl:
					// Function literals in package-level initializers hang
					// off a per-package pseudo-parent.
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								cg.collectLits(pkg, pkg.Path+".init", v)
							}
						}
					}
				}
			}
		}
	}
	for _, fn := range cg.Funcs {
		cg.addEdges(fn)
	}
	return cg
}

// callGraph returns the module's call graph, built once and shared by
// every module-scoped analyzer of a run.
func (mod *Module) callGraph() *CallGraph {
	if mod.graph == nil {
		mod.graph = BuildCallGraph(mod)
	}
	return mod.graph
}

// callee resolves a call to the module function it runs: a declared
// function or method with a body in the module, or a literal called in
// place. nil otherwise.
func (cg *CallGraph) callee(info *types.Info, call *ast.CallExpr) *FuncNode {
	if obj := staticCallee(info, call); obj != nil {
		return cg.byObj[obj]
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return cg.byLit[lit]
	}
	return nil
}

func (cg *CallGraph) addDecl(pkg *Package, d *ast.FuncDecl) *FuncNode {
	fn := &FuncNode{Pkg: pkg, Node: d, Body: d.Body}
	if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
		fn.Obj = obj
		fn.ID = obj.FullName()
		cg.byObj[obj] = fn
	} else {
		fn.ID = pkg.Path + "." + d.Name.Name
	}
	if d.Recv != nil && len(d.Recv.List) > 0 && len(d.Recv.List[0].Names) > 0 {
		fn.RecvObj = pkg.Info.Defs[d.Recv.List[0].Names[0]]
	}
	fn.ParamObjs, fn.Variadic = fieldObjs(pkg.Info, d.Type.Params)
	fn.ResultObjs, _ = fieldObjs(pkg.Info, d.Type.Results)
	cg.Funcs = append(cg.Funcs, fn)
	return fn
}

func (cg *CallGraph) addLit(pkg *Package, id string, lit *ast.FuncLit) *FuncNode {
	fn := &FuncNode{ID: id, Pkg: pkg, Node: lit, Body: lit.Body}
	fn.ParamObjs, fn.Variadic = fieldObjs(pkg.Info, lit.Type.Params)
	fn.ResultObjs, _ = fieldObjs(pkg.Info, lit.Type.Results)
	cg.byLit[lit] = fn
	cg.Funcs = append(cg.Funcs, fn)
	return fn
}

// collectLits registers every function literal under root (excluding root
// itself), numbering them in source order beneath parentID.
func (cg *CallGraph) collectLits(pkg *Package, parentID string, root ast.Node) {
	n := 0
	ast.Inspect(root, func(x ast.Node) bool {
		if x == root {
			return true
		}
		if lit, ok := x.(*ast.FuncLit); ok {
			n++
			id := fmt.Sprintf("%s$%d", parentID, n)
			cg.addLit(pkg, id, lit)
			cg.collectLits(pkg, id, lit.Body)
			return false
		}
		return true
	})
}

// fieldObjs resolves the declared objects of a parameter/result list.
// Unnamed and blank entries yield nil placeholders so indices line up
// with call-site arguments.
func fieldObjs(info *types.Info, fields *ast.FieldList) (objs []types.Object, variadic bool) {
	if fields == nil {
		return nil, false
	}
	for _, f := range fields.List {
		if _, ok := f.Type.(*ast.Ellipsis); ok {
			variadic = true
		}
		if len(f.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				objs = append(objs, nil)
				continue
			}
			objs = append(objs, info.Defs[name])
		}
	}
	return objs, variadic
}

// addEdges records the statically resolvable call sites of one function.
// Nested literals are separate nodes and are skipped here.
func (cg *CallGraph) addEdges(fn *FuncNode) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if callee := cg.callee(fn.Pkg.Info, n); callee != nil {
				fn.Calls = append(fn.Calls, CallEdge{Callee: callee, Pos: n.Pos()})
			}
		}
		return true
	})
}

// calleeFirst lists Funcs so that, outside recursion, every function
// comes after the functions it calls.
func (cg *CallGraph) calleeFirst() []*FuncNode {
	order := make([]*FuncNode, 0, len(cg.Funcs))
	seen := map[*FuncNode]bool{}
	var visit func(*FuncNode)
	visit = func(fn *FuncNode) {
		if !seen[fn] {
			seen[fn] = true
			for _, c := range fn.Calls {
				visit(c.Callee)
			}
			order = append(order, fn)
		}
	}
	for _, fn := range cg.Funcs {
		visit(fn)
	}
	return order
}

// staticCallee resolves a call to its declared function object: direct
// calls (f(...)), package-qualified calls (pkg.F(...)), and method calls
// (recv.M(...)). Indirect calls resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// String serializes the graph for determinism checks and debugging: one
// line per node, indented lines per outgoing edge, in graph order.
func (cg *CallGraph) String(fset *token.FileSet) string {
	var b strings.Builder
	for _, fn := range cg.Funcs {
		pos := fset.Position(fn.Node.Pos())
		_, _ = fmt.Fprintf(&b, "%s (%s:%d)\n", fn.ID, pos.Filename, pos.Line)
		for _, c := range fn.Calls {
			p := fset.Position(c.Pos)
			_, _ = fmt.Fprintf(&b, "  -> %s @%d:%d\n", c.Callee.ID, p.Line, p.Column)
		}
	}
	return b.String()
}
