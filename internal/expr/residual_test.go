package expr_test

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqlish"
	"repro/internal/types"
)

// residualCheck folds e for row with the slots in random left open and
// compares the compiled residual over the compact row with the compiled e
// over the full row. The det row handed to Residual holds a decoy in the
// open slots, so a residual that read them would show.
func residualCheck(t *testing.T, e expr.Expr, schema *types.Schema, row types.Row, random []int) {
	t.Helper()
	full, err := expr.Compile(e, schema)
	det := row.Clone()
	for _, slot := range random {
		det[slot] = types.NewString("decoy")
	}
	res, rerr := expr.Residual(e, schema, det, random)
	if (err == nil) != (rerr == nil) {
		t.Errorf("%s: Compile error %v, Residual error %v", e, err, rerr)
		return
	}
	if err != nil {
		return
	}
	c, err := expr.Compile(res, nil)
	if err != nil {
		t.Errorf("%s: residual %s does not compile: %v", e, res, err)
		return
	}
	args := make(types.Row, len(random))
	for i, slot := range random {
		args[i] = row[slot]
	}
	if got, want := c.Eval(args), full.Eval(row); !got.Identical(want) {
		t.Errorf("%s with open slots %v on %v: residual %s gives %s %v, interpreter %s %v", e, random, row, res, got.Kind(), got, want.Kind(), want)
	}
	if _, ok := res.(*expr.Const); len(random) == 0 && !ok {
		t.Errorf("%s with no open slot left residual %s unfolded", e, res)
	}
}

func TestResidualMatchesEval(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "r.x", Kind: types.KindFloat},
		types.Column{Name: "r.y", Kind: types.KindFloat},
		types.Column{Name: "l.q", Kind: types.KindFloat},
		types.Column{Name: "l.n", Kind: types.KindInt},
		types.Column{Name: "l.b", Kind: types.KindBool},
		types.Column{Name: "l.s", Kind: types.KindString},
	)
	x, y, q, n, b, s := expr.C("r.x"), expr.C("r.y"), expr.C("l.q"), expr.C("l.n"), expr.C("l.b"), expr.C("l.s")
	exprs := []expr.Expr{
		x,
		expr.B(expr.OpMul, x, q),
		expr.B(expr.OpMul, q, x),
		expr.B(expr.OpAdd, expr.B(expr.OpMul, x, q), expr.F(1)),
		expr.B(expr.OpAdd, x, n),
		expr.B(expr.OpSub, y, x),
		expr.B(expr.OpDiv, x, expr.B(expr.OpSub, n, n)),
		expr.B(expr.OpMul, n, expr.I(math.MaxInt64)),
		expr.B(expr.OpGt, y, x),
		expr.B(expr.OpLe, expr.B(expr.OpMul, q, expr.F(2)), x),
		expr.B(expr.OpEq, x, n),
		expr.B(expr.OpNe, s, x),
		expr.B(expr.OpLt, s, expr.S("m")),
		expr.B(expr.OpAnd, b, expr.B(expr.OpGt, x, expr.F(0))),
		expr.B(expr.OpOr, b, expr.B(expr.OpGt, x, expr.F(0))),
		expr.B(expr.OpAnd, expr.B(expr.OpGt, x, expr.F(0)), b),
		expr.B(expr.OpOr, expr.B(expr.OpLt, n, expr.I(0)), n),
		&expr.Not{Inner: expr.B(expr.OpGe, x, q)},
		&expr.Neg{Inner: expr.B(expr.OpSub, x, n)},
		&expr.Neg{Inner: n},
		expr.B(expr.OpAdd, expr.B(expr.OpMul, expr.F(math.NaN()), x), expr.F(math.Copysign(0, -1))),
	}
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	rows := []types.Row{
		{types.NewFloat(1.5), types.NewFloat(2.25), types.NewFloat(3), types.NewInt(4), types.NewBool(true), types.NewString("a")},
		{types.NewFloat(negZero), types.NewFloat(0), types.NewFloat(-1), types.NewInt(0), types.NewBool(false), types.NewString("z")},
		{types.NewFloat(nan), types.NewFloat(inf), types.NewFloat(nan), types.NewInt(math.MinInt64), types.Null, types.Null},
		{types.Null, types.NewFloat(-inf), types.Null, types.Null, types.NewBool(true), types.NewString("")},
		// Kind contradictions: an INT where the schema says FLOAT, a
		// STRING in a numeric slot, a FLOAT in the BOOL slot.
		{types.NewInt(7), types.NewString("7"), types.NewInt(-2), types.NewFloat(0.5), types.NewFloat(1), types.NewInt(3)},
	}
	for _, e := range exprs {
		for _, row := range rows {
			// Every subset of slots left open.
			for mask := 0; mask < 1<<schema.Len(); mask++ {
				var random []int
				for slot := 0; slot < schema.Len(); slot++ {
					if mask&(1<<slot) != 0 {
						random = append(random, slot)
					}
				}
				residualCheck(t, e, schema, row, random)
			}
		}
	}
	if _, err := expr.Residual(expr.C("nope"), schema, rows[0], nil); err == nil {
		t.Error("Residual of an unknown column succeeded")
	}
}

// FuzzResidualVsInterpreter differentially fuzzes partial evaluation
// against the interpreter: for random expressions (parsed from the fuzzed
// SQL and generated from the seed) over random schemas and rows, with a
// random subset of slots left open and some values of the wrong kind for
// their column, the residual over the open slots must evaluate to exactly
// the interpreter's Value on the full row.
func FuzzResidualVsInterpreter(f *testing.F) {
	for i, src := range fuzzKernelSeeds {
		f.Add(src, uint64(i)*1469598103934665603)
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		r := fuzzRNG(seed)
		nCols := 3 + r.intn(6)
		cols := make([]types.Column, nCols)
		for i := range cols {
			cols[i] = types.Column{Name: "c" + string(rune('0'+i)), Kind: fuzzKinds[r.intn(len(fuzzKinds))]}
		}
		schema := types.NewSchema(cols...)
		rows := make([]types.Row, 1+r.intn(8))
		for i := range rows {
			row := make(types.Row, nCols)
			for j := range row {
				kind := cols[j].Kind
				if r.intn(6) == 0 {
					kind = fuzzKinds[r.intn(len(fuzzKinds))]
				}
				row[j] = fuzzValue(&r, kind)
			}
			rows[i] = row
		}
		var exprs []expr.Expr
		if stmt, err := sqlish.Parse(src); err == nil {
			if sel, ok := stmt.(*sqlish.SelectStmt); ok {
				if sel.Where != nil {
					exprs = append(exprs, sel.Where)
				}
				if sel.Having != nil {
					exprs = append(exprs, sel.Having)
				}
				for _, it := range sel.Items {
					if it.Expr != nil {
						exprs = append(exprs, it.Expr)
					}
				}
			}
		}
		for i, e := range exprs {
			exprs[i] = expr.RenameColumns(e, func(string) string { return cols[r.intn(nCols)].Name })
		}
		for i := 0; i < 4; i++ {
			exprs = append(exprs, fuzzExpr(&r, cols, 2+r.intn(4)))
		}
		for _, e := range exprs {
			for _, row := range rows {
				var random []int
				for slot := 0; slot < nCols; slot++ {
					if r.intn(2) == 0 {
						random = append(random, slot)
					}
				}
				residualCheck(t, e, schema, row, random)
			}
		}
	})
}
