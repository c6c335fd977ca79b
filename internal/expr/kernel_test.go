package expr_test

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// diffSchema has one column of every kind (plus a declared-NULL column),
// so generated expressions exercise every static-typing branch of the
// kernel compiler.
func diffSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "i1", Kind: types.KindInt},
		types.Column{Name: "i2", Kind: types.KindInt},
		types.Column{Name: "f1", Kind: types.KindFloat},
		types.Column{Name: "f2", Kind: types.KindFloat},
		types.Column{Name: "b1", Kind: types.KindBool},
		types.Column{Name: "b2", Kind: types.KindBool},
		types.Column{Name: "s1", Kind: types.KindString},
		types.Column{Name: "s2", Kind: types.KindString},
		types.Column{Name: "n1", Kind: types.KindNull},
	)
}

// diffRows covers the numeric edge cases the interpreter's semantics hang
// on: NULLs, signed zero, NaN, infinities, int64 extremes (where float
// conversion loses precision), empty strings, division by zero.
func diffRows() []types.Row {
	ints := []types.Value{
		types.NewInt(0), types.NewInt(1), types.NewInt(-1), types.NewInt(7),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewInt(1 << 60), types.NewInt((1 << 60) + 1), types.Null,
	}
	floats := []types.Value{
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(1.5), types.NewFloat(-2.25), types.NewFloat(math.NaN()),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(1e300), types.Null,
	}
	bools := []types.Value{types.NewBool(true), types.NewBool(false), types.Null}
	strs := []types.Value{types.NewString(""), types.NewString("a"), types.NewString("ab"), types.Null}
	var rows []types.Row
	pick := func(vals []types.Value, i int) types.Value { return vals[i%len(vals)] }
	for i := 0; i < 72; i++ {
		rows = append(rows, types.Row{
			pick(ints, i), pick(ints, i/2+3), pick(floats, i), pick(floats, i/3+5),
			pick(bools, i), pick(bools, i/2+1), pick(strs, i), pick(strs, i/2+2),
			types.Null,
		})
	}
	return rows
}

// checkDiff asserts the kernel agrees with the interpreter on e over rows:
// EvalMask/EvalSel against EvalBool, and EvalNumeric against Eval +
// AsFloat (the aggregate-input contract). Returns early (with no failure)
// when the kernel compiler rejects the expression — the fallback contract.
func checkDiff(t *testing.T, e expr.Expr, schema *types.Schema, rows []types.Row) {
	t.Helper()
	c, err := expr.Compile(e, schema)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	k, err := expr.CompileKernel(e, schema)
	if err != nil {
		t.Fatalf("CompileKernel(%s): %v (interpreter accepted it)", e, err)
	}
	n := len(rows)
	k.Begin(n)
	for _, col := range k.Cols() {
		for i, row := range rows {
			if !col.Set(i, row[col.Slot()]) {
				t.Fatalf("%s: gather of slot %d row %d (%s) rejected", e, col.Slot(), i, row[col.Slot()])
			}
		}
	}
	mask := make([]bool, n)
	k.EvalMask(mask)
	var wantSel []int
	for i, row := range rows {
		want := c.EvalBool(row)
		if mask[i] != want {
			t.Fatalf("%s: row %d (%s): kernel mask %v, interpreter %v", e, i, row, mask[i], want)
		}
		if want {
			wantSel = append(wantSel, i)
		}
	}
	sel := k.EvalSel(nil)
	if len(sel) != len(wantSel) {
		t.Fatalf("%s: kernel selected %d rows, interpreter %d", e, len(sel), len(wantSel))
	}
	for i := range sel {
		if sel[i] != wantSel[i] {
			t.Fatalf("%s: selection %d: kernel row %d, interpreter row %d", e, i, sel[i], wantSel[i])
		}
	}
	dst := make([]float64, n)
	nulls := make([]bool, n)
	ok := k.EvalNumeric(dst, nulls)
	for i, row := range rows {
		v := c.Eval(row)
		if v.IsNull() {
			if ok && !nulls[i] {
				t.Fatalf("%s: row %d: interpreter NULL, kernel %v", e, i, dst[i])
			}
			continue
		}
		f, numeric := v.AsFloat()
		if !numeric {
			if ok {
				t.Fatalf("%s: row %d: interpreter non-numeric %s but kernel claimed numeric", e, i, v.Kind())
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: row %d: kernel refused numeric eval, interpreter yields %v", e, i, f)
		}
		if nulls[i] {
			t.Fatalf("%s: row %d: kernel NULL, interpreter %v", e, i, f)
		}
		if math.Float64bits(dst[i]) != math.Float64bits(f) && !(math.IsNaN(dst[i]) && math.IsNaN(f)) {
			t.Fatalf("%s: row %d: kernel %v (%x), interpreter %v (%x)", e, i, dst[i], math.Float64bits(dst[i]), f, math.Float64bits(f))
		}
	}
}

// TestKernelDifferentialOps sweeps every binary operator over every pair
// of column kinds (plus NULL literals), pinning the kernel's static-typing
// matrix to the interpreter.
func TestKernelDifferentialOps(t *testing.T) {
	schema := diffSchema()
	rows := diffRows()
	operands := []expr.Expr{
		expr.C("i1"), expr.C("i2"), expr.C("f1"), expr.C("f2"),
		expr.C("b1"), expr.C("b2"), expr.C("s1"), expr.C("s2"), expr.C("n1"),
		expr.I(3), expr.F(2.5), expr.S("ab"), &expr.Const{Val: types.NewBool(true)},
		&expr.Const{Val: types.Null},
	}
	ops := []expr.BinOp{
		expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv,
		expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe,
		expr.OpAnd, expr.OpOr,
	}
	for _, op := range ops {
		for _, l := range operands {
			for _, r := range operands {
				checkDiff(t, expr.B(op, l, r), schema, rows)
			}
		}
	}
}

// TestKernelDifferentialNested pins composite shapes: fused predicate
// roots over arithmetic, AND/OR over mixed sub-results, NOT/negation
// nesting, division by zero feeding a comparison, int arithmetic overflow
// feeding an int comparison.
func TestKernelDifferentialNested(t *testing.T) {
	schema := diffSchema()
	rows := diffRows()
	cases := []expr.Expr{
		expr.B(expr.OpLt, expr.B(expr.OpAdd, expr.C("i1"), expr.C("i2")), expr.C("f1")),
		expr.B(expr.OpGe, expr.B(expr.OpMul, expr.C("f1"), expr.C("f2")), expr.B(expr.OpDiv, expr.C("f2"), expr.C("f1"))),
		expr.B(expr.OpEq, expr.B(expr.OpMul, expr.C("i1"), expr.C("i1")), expr.C("i2")), // int overflow wraps
		expr.And(
			expr.B(expr.OpLt, expr.C("i1"), expr.I(100)),
			expr.B(expr.OpGt, expr.C("f1"), expr.F(-1)),
			expr.B(expr.OpNe, expr.C("s1"), expr.C("s2")),
		),
		expr.B(expr.OpOr, expr.B(expr.OpEq, expr.C("b1"), expr.C("b2")), expr.C("n1")),
		&expr.Not{Inner: expr.B(expr.OpLe, expr.C("s1"), expr.C("s2"))},
		&expr.Not{Inner: expr.C("i1")}, // NOT of non-boolean: NULL
		&expr.Neg{Inner: expr.C("i1")},
		&expr.Neg{Inner: expr.C("s1")},                                                   // negation of string: NULL
		expr.B(expr.OpAdd, &expr.Neg{Inner: expr.C("f1")}, expr.C("b1")),                 // bool as numeric via AsFloat
		expr.B(expr.OpDiv, expr.C("i1"), expr.C("i2")),                                   // int/int promotes, /0 is NULL
		expr.B(expr.OpLt, expr.C("b1"), expr.C("i1")),                                    // bool vs int ordered: NULL
		expr.B(expr.OpEq, expr.C("b1"), expr.C("i1")),                                    // bool vs int equality: false
		expr.B(expr.OpAnd, expr.C("b1"), expr.B(expr.OpAdd, expr.C("i1"), expr.C("i2"))), // AND with non-bool side
		expr.B(expr.OpOr, expr.C("b1"), expr.C("s1")),
		expr.B(expr.OpSub, expr.C("i1"), expr.C("n1")),
		expr.B(expr.OpAdd, expr.C("i1"), expr.C("i2")), // non-boolean root: EvalBool false everywhere
		expr.C("b1"),
		expr.C("n1"),
	}
	for _, e := range cases {
		checkDiff(t, e, schema, rows)
	}
}

// TestKernelGatherMismatch pins the fallback contract: a runtime value
// whose kind contradicts the declared column kind is rejected by the
// gather, not silently coerced.
func TestKernelGatherMismatch(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})
	k, err := expr.CompileKernel(expr.B(expr.OpLt, expr.C("x"), expr.I(5)), schema)
	if err != nil {
		t.Fatal(err)
	}
	k.Begin(2)
	col := k.Cols()[0]
	if !col.Set(0, types.NewInt(3)) {
		t.Fatal("declared-kind value rejected")
	}
	if !col.Set(1, types.Null) {
		t.Fatal("NULL rejected (NULL is valid in any column)")
	}
	if col.Set(1, types.NewFloat(3)) {
		t.Fatal("kind-mismatched value accepted; fallback guard broken")
	}
	if col.Fill(2, types.NewString("x")) {
		t.Fatal("kind-mismatched broadcast accepted")
	}
}

// TestKernelGatherMatchesSet pins the strided bulk gather against per-row
// Set, column by column over diffRows laid out as one flat arena (the
// layout of a seed window): same lanes, same NULLs, and a kind mismatch
// rejected by both.
func TestKernelGatherMatchesSet(t *testing.T) {
	schema := diffSchema()
	rows := diffRows()
	stride := schema.Len()
	arena := make([]types.Value, 0, len(rows)*stride)
	for _, r := range rows {
		arena = append(arena, r...)
	}
	n := len(rows)
	for c := 0; c < stride; c++ {
		col := expr.C(schema.Col(c).Name)
		var e expr.Expr = col
		switch schema.Col(c).Kind {
		case types.KindBool:
			e = expr.B(expr.OpOr, col, expr.B(expr.OpEq, col, col))
		case types.KindString:
			e = expr.B(expr.OpEq, col, expr.S("a"))
		}
		kGather, err := expr.CompileKernel(e, schema)
		if err != nil {
			t.Fatal(err)
		}
		kSet, _ := expr.CompileKernel(e, schema)
		kGather.Begin(n)
		kSet.Begin(n)
		if len(kGather.Cols()) != 1 {
			t.Fatalf("%s: %d columns", e, len(kGather.Cols()))
		}
		if !kGather.Cols()[0].Gather(n, arena, c, stride) {
			t.Fatalf("%s: Gather rejected declared-kind values", e)
		}
		for i, r := range rows {
			kSet.Cols()[0].Set(i, r[c])
		}
		gf, sf := make([]float64, n), make([]float64, n)
		gn, sn := make([]bool, n), make([]bool, n)
		if kGather.EvalNumeric(gf, gn) != kSet.EvalNumeric(sf, sn) {
			t.Fatalf("%s: EvalNumeric disagrees on whether it applies", e)
		}
		gm, sm := make([]bool, n), make([]bool, n)
		kGather.EvalMask(gm)
		kSet.EvalMask(sm)
		for i := 0; i < n; i++ {
			if math.Float64bits(gf[i]) != math.Float64bits(sf[i]) || gn[i] != sn[i] || gm[i] != sm[i] {
				t.Fatalf("%s row %d: Gather (%v %v %v) vs Set (%v %v %v)", e, i, gf[i], gn[i], gm[i], sf[i], sn[i], sm[i])
			}
		}
		// A value of another kind in the middle of the column.
		bad := types.NewString("x")
		if schema.Col(c).Kind == types.KindString {
			bad = types.NewInt(1)
		}
		saved := arena[7*stride+c]
		arena[7*stride+c] = bad
		wantOK := true
		for i := 0; i < n && wantOK; i++ {
			wantOK = kSet.Cols()[0].Set(i, arena[i*stride+c])
		}
		if got := kGather.Cols()[0].Gather(n, arena, c, stride); got != wantOK || got {
			t.Fatalf("%s: Gather over a %s value = %v, Set = %v; want both false", e, bad.Kind(), got, wantOK)
		}
		arena[7*stride+c] = saved
	}
}

// TestKernelUnknownColumn pins that kernel compilation fails exactly where
// interpretation fails.
func TestKernelUnknownColumn(t *testing.T) {
	schema := diffSchema()
	if _, err := expr.CompileKernel(expr.C("nope"), schema); err == nil {
		t.Fatal("CompileKernel accepted an unresolvable column")
	}
}

// TestKernelFillBroadcast pins Fill against per-row Set: broadcasting a
// tuple's deterministic attribute must equal setting it row by row.
func TestKernelFillBroadcast(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "d", Kind: types.KindFloat},
		types.Column{Name: "r", Kind: types.KindFloat},
	)
	e := expr.B(expr.OpLt, expr.C("d"), expr.C("r"))
	const n = 9
	kFill, _ := expr.CompileKernel(e, schema)
	kSet, _ := expr.CompileKernel(e, schema)
	kFill.Begin(n)
	kSet.Begin(n)
	d := types.NewFloat(0.5)
	for _, col := range kFill.Cols() {
		if col.Slot() == 0 {
			if !col.Fill(n, d) {
				t.Fatal("Fill rejected")
			}
		} else {
			for i := 0; i < n; i++ {
				col.Set(i, types.NewFloat(float64(i)/4-0.6))
			}
		}
	}
	for _, col := range kSet.Cols() {
		for i := 0; i < n; i++ {
			if col.Slot() == 0 {
				col.Set(i, d)
			} else {
				col.Set(i, types.NewFloat(float64(i)/4-0.6))
			}
		}
	}
	mFill, mSet := make([]bool, n), make([]bool, n)
	kFill.EvalMask(mFill)
	kSet.EvalMask(mSet)
	for i := range mFill {
		if mFill[i] != mSet[i] {
			t.Fatalf("row %d: Fill path %v, Set path %v", i, mFill[i], mSet[i])
		}
	}
}

// TestKernelBatchReuse pins lane reuse: evaluating a big batch, then a
// small one, then a big one again must not leak stale lane values across
// Begin calls.
func TestKernelBatchReuse(t *testing.T) {
	schema := diffSchema()
	rows := diffRows()
	e := expr.And(
		expr.B(expr.OpLe, expr.C("i1"), expr.C("f1")),
		expr.B(expr.OpNe, expr.C("b1"), expr.C("b2")),
	)
	c := expr.MustCompile(e, schema)
	k, err := expr.CompileKernel(e, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(rows), 1, 3, len(rows)} {
		k.Begin(n)
		for _, col := range k.Cols() {
			for i := 0; i < n; i++ {
				col.Set(i, rows[i][col.Slot()])
			}
		}
		mask := make([]bool, n)
		k.EvalMask(mask)
		for i := 0; i < n; i++ {
			if want := c.EvalBool(rows[i]); mask[i] != want {
				t.Fatalf("n=%d row %d: kernel %v, interpreter %v", n, i, mask[i], want)
			}
		}
	}
}
