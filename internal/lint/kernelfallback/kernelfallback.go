// Package kernelfallback keeps hot-loop operators honest about
// vectorization: a function that owns a //mcdbr:hotpath replicate loop
// and compiles an expression interpreter (expr.Compile / MustCompile)
// must also attempt kernel lowering (expr.CompileKernel or
// (*expr.Compiled).Kernel) somewhere in that function.
//
// The vectorized kernel layer (DESIGN.md §13) is deliberately
// best-effort: CompileKernel refuses expressions it cannot lower and
// the caller falls back to the row interpreter, so correctness never
// depends on a kernel existing. The failure mode this analyzer guards
// against is the silent one — a future operator wires a new hot loop
// straight to the interpreter and never even asks for a kernel, and
// every query through it quietly loses the batched path. Interpreter-
// only sites that are deliberate (e.g. a predicate evaluated once per
// group per replicate, like HAVING, rather than once per tuple) are
// suppressed with `//mcdbr:kernelfallback ok(reason)`.
//
// The same holds for the Gibbs looper's residuals (DESIGN.md §1): a
// function that owns a //mcdbr:hotpath loop must not reach
// (*bundle.Tuple).Eval, which rebuilds the tuple's whole row to learn
// what it contributes, either directly or through the same-package
// functions it calls, unless the same audited suppression on the Eval
// call says why (a tuple with presence vectors has no residual yet).
// Calls through function values and interfaces are not followed.
package kernelfallback

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:      "kernelfallback",
	Doc:       "//mcdbr:hotpath functions that compile expressions must attempt kernel lowering, and must not rebuild Gibbs tuples' rows",
	Directive: "kernelfallback",
	Run:       run,
}

// exprPkg is the import path of the expression compiler whose API the
// analyzer keys on, and bundlePkg that of the Gibbs tuple.
const (
	exprPkg   = "repro/internal/expr"
	bundlePkg = "repro/internal/bundle"
)

func run(pass *analysis.Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					decls[obj] = fn
				}
			}
		}
	}
	reported := map[*ast.CallExpr]bool{}
	for _, f := range pass.Files {
		idx := directive.ForFile(pass.Fset, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !hasHotLoop(pass, idx, fn) {
				continue
			}
			for _, call := range reachedRowEvals(pass, fn, decls) {
				if !reported[call] {
					reported[call] = true
					pass.Reportf(call.Pos(), "(*bundle.Tuple).Eval rebuilds the tuple's whole row and is reached from the //mcdbr:hotpath loop of %s: evaluate a residual or a kernel instead, or audit the fallback with //mcdbr:kernelfallback ok(reason)", fn.Name.Name)
				}
			}
			c := scanCalls(pass, fn)
			if c.lowers {
				continue
			}
			for _, call := range c.compiles {
				pass.Reportf(call.Pos(), "%s owns a //mcdbr:hotpath loop and compiles an interpreter here but never attempts kernel lowering: call expr.CompileKernel (falling back on error) so the hot loop keeps the vectorized path (DESIGN.md §13)", fn.Name.Name)
			}
		}
	}
	return nil
}

// reachedRowEvals returns the (*bundle.Tuple).Eval call sites in fn and
// in every function of the package that fn reaches through static calls.
func reachedRowEvals(pass *analysis.Pass, fn *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []*ast.CallExpr {
	var evals []*ast.CallExpr
	seen := map[*ast.FuncDecl]bool{fn: true}
	work := []*ast.FuncDecl{fn}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		c := scanCalls(pass, d)
		evals = append(evals, c.rowEvals...)
		for _, callee := range c.callees {
			if cd := decls[callee]; cd != nil && !seen[cd] {
				seen[cd] = true
				work = append(work, cd)
			}
		}
	}
	return evals
}

// hasHotLoop reports whether fn contains a loop carrying the
// //mcdbr:hotpath marker.
func hasHotLoop(pass *analysis.Pass, idx *directive.Index, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if idx.Marked("hotpath", pass.Fset.Position(n.Pos()).Line) {
				found = true
			}
		}
		return !found
	})
	return found
}

// calls is what scanCalls finds in one function body.
type calls struct {
	// compiles are the interpreter-compile call sites (expr.Compile /
	// expr.MustCompile); lowers notes a kernel-lowering attempt
	// (expr.CompileKernel or a Kernel method from the expr package).
	compiles []*ast.CallExpr
	lowers   bool
	// rowEvals are the (*bundle.Tuple).Eval call sites.
	rowEvals []*ast.CallExpr
	// callees are the statically called functions of the package itself.
	callees []*types.Func
}

// scanCalls walks fn once, collecting its calls.
func scanCalls(pass *analysis.Pass, fn *ast.FuncDecl) calls {
	var c calls
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		f, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		f = f.Origin()
		switch f.Pkg().Path() {
		case pass.Pkg.Path():
			c.callees = append(c.callees, f)
		case exprPkg:
			switch f.Name() {
			case "Compile", "MustCompile":
				c.compiles = append(c.compiles, call)
			case "CompileKernel", "Kernel":
				c.lowers = true
			}
		case bundlePkg:
			if f.Name() == "Eval" && isTupleMethod(f) {
				c.rowEvals = append(c.rowEvals, call)
			}
		}
		return true
	})
	return c
}

// isTupleMethod reports whether f is a method of bundle.Tuple.
func isTupleMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Tuple"
}
