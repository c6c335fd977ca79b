// Package slabsafe enforces the bundle.Slab aliasing rules of
// DESIGN.md §6 outside the arena implementation itself.
//
// Slab-carved slices (Slab.Row, Slab.RandRefs) are views into a shared
// arena chunk. Two operations break the model:
//
//   - append: carved slices are capacity-limited, so an append cannot
//     clobber a neighbour — instead it silently reallocates on the
//     heap, escaping the arena, double-counting the memory budget, and
//     defeating slab recycling. Operators must carve the final width
//     up front (Slab.Row(n)) and index into it.
//
//   - storing a carved value in something that outlives the arena: an
//     operator's slab is zeroed wholesale by Slab.Reset at every batch
//     and whenever it returns to the pool, so a carved slice stashed in
//     a package-level variable dangles — it will be observed as NULLs
//     (or worse, recycled rows) by the next batch or query. Retention
//     across batches goes through ws.Retain; retention across runs
//     through the prefix cache.
//
// The analysis is an intra-function taint walk: values returned by
// *bundle.Slab carving methods (and locals assigned from them, or
// reslices of those) are tainted; `append(tainted, ...)` and
// assignments of tainted values to package-level variables are
// reported. internal/bundle itself is exempt — the arena may grow its
// own chunks. Suppress deliberate escapes with
// `//mcdbr:slabsafe ok(reason)`.
package slabsafe

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// BundlePath is the arena package: taint source, and the one package
// exempt from the rules.
const BundlePath = "repro/internal/bundle"

// carvers are the *bundle.Slab methods returning arena-backed slices.
var carvers = map[string]bool{"Row": true, "RandRefs": true}

var Analyzer = &analysis.Analyzer{
	Name:      "slabsafe",
	Doc:       "flag append on slab-carved slices and slab values stored past Slab.Reset",
	Directive: "slabsafe",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if p := pass.Pkg.Path(); p == BundlePath || p == BundlePath+"_test" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil
}

// isCarveCall reports whether call invokes a carving method on
// *bundle.Slab.
func isCarveCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !carvers[fn.Name()] {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := derefNamed(recv.Type())
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == BundlePath && named.Obj().Name() == "Slab"
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// checkFunc runs the taint walk over one function body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	var isTainted func(e ast.Expr) bool
	isTainted = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj != nil && tainted[obj]
		case *ast.CallExpr:
			return isCarveCall(pass, x)
		case *ast.SliceExpr:
			return isTainted(x.X)
		case *ast.ParenExpr:
			return isTainted(x.X)
		}
		return false
	}

	// Propagate taint through direct assignments to a fixed point (the
	// walk is syntactic, so a couple of passes cover x := carve();
	// y := x; z := y[1:] chains regardless of statement order).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isTainted(as.Rhs[i]) {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 && isTainted(x.Args[0]) {
					pass.Reportf(x.Pos(), "append to a slab-carved slice: the value escapes the bundle.Slab arena and dodges the memory gauge; carve the final width up front (DESIGN.md §6)")
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				if !isTainted(x.Rhs[i]) {
					continue
				}
				if obj := rootObj(pass, lhs); obj != nil && isPackageLevel(pass, obj) {
					pass.Reportf(x.Pos(), "slab-carved value stored in package-level %q outlives Slab.Reset and will dangle into recycled chunks; retain via ws.Retain or copy (DESIGN.md §6)", obj.Name())
				}
			}
		}
		return true
	})
}

// rootObj returns the object of the base identifier of an lvalue
// (v, v.f, v[i], v.f[i].g all root at v).
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(pass *analysis.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() == pass.Pkg.Scope()
}
