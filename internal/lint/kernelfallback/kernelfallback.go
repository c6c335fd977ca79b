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
package kernelfallback

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:      "kernelfallback",
	Doc:       "//mcdbr:hotpath functions that compile expressions must attempt kernel lowering",
	Directive: "kernelfallback",
	Run:       run,
}

// exprPkg is the import path of the expression compiler whose API the
// analyzer keys on.
const exprPkg = "repro/internal/expr"

func run(pass *analysis.Pass) error {
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
			compiles, lowers := scanCompiles(pass, fn)
			if lowers {
				continue
			}
			for _, call := range compiles {
				pass.Reportf(call.Pos(), "%s owns a //mcdbr:hotpath loop and compiles an interpreter here but never attempts kernel lowering: call expr.CompileKernel (falling back on error) so the hot loop keeps the vectorized path (DESIGN.md §13)", fn.Name.Name)
			}
		}
	}
	return nil
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

// scanCompiles walks fn once, collecting interpreter-compile call
// sites (expr.Compile / expr.MustCompile) and noting whether any
// kernel-lowering attempt (expr.CompileKernel or a Kernel method from
// the expr package) appears.
func scanCompiles(pass *analysis.Pass, fn *ast.FuncDecl) (compiles []*ast.CallExpr, lowers bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil || f.Pkg().Path() != exprPkg {
			return true
		}
		switch f.Name() {
		case "Compile", "MustCompile":
			compiles = append(compiles, call)
		case "CompileKernel", "Kernel":
			lowers = true
		}
		return true
	})
	return compiles, lowers
}
