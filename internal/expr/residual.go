package expr

import (
	"fmt"

	"repro/internal/types"
)

// Arg reads value I of a compact argument row. Residual puts one in place
// of every reference to a slot whose value is not yet known; a residual
// compiles like any expression and evaluates over the row of those values.
type Arg struct {
	I int
}

func (a *Arg) String() string    { return fmt.Sprintf("$%d", a.I) }
func (a *Arg) walk(f func(Expr)) { f(a) }

// Residual partially evaluates e for one row of schema whose values are
// known except at the slots listed in random: a column reference to
// random[i] becomes Arg{i}, any other becomes the constant det[slot], and
// every node whose operands are then all constant — or whose AND/OR left
// operand already decides it — is folded to the constant the interpreter
// computes for it. The residual is e's own tree with known parts replaced
// by their values, so compiling it and evaluating it over the compact row
// (row[random[0]], row[random[1]], ...) gives exactly the Value that
// compiling e against schema gives on the full row: same kind, same bits,
// same NULL-ness. The error is Compile's for a column schema lacks.
func Residual(e Expr, schema *types.Schema, det types.Row, random []int) (Expr, error) {
	switch n := e.(type) {
	case *Col:
		idx := schema.Lookup(n.Name)
		if idx < 0 {
			return nil, fmt.Errorf("expr: column %q not found in schema %s", n.Name, schema)
		}
		for i, slot := range random {
			if slot == idx {
				return &Arg{I: i}, nil
			}
		}
		return &Const{Val: det[idx]}, nil
	case *Neg:
		inner, err := Residual(n.Inner, schema, det, random)
		if err != nil {
			return nil, err
		}
		return fold(&Neg{Inner: inner}, isConst(inner))
	case *Not:
		inner, err := Residual(n.Inner, schema, det, random)
		if err != nil {
			return nil, err
		}
		return fold(&Not{Inner: inner}, isConst(inner))
	case *Bin:
		l, err := Residual(n.Left, schema, det, random)
		if err != nil {
			return nil, err
		}
		r, err := Residual(n.Right, schema, det, random)
		if err != nil {
			return nil, err
		}
		// AND with a FALSE left operand and OR with a TRUE one return it
		// without evaluating the right operand (see compileBin).
		decided := false
		if c, ok := l.(*Const); ok && c.Val.Kind() == types.KindBool {
			decided = (n.Op == OpAnd && !c.Val.Bool()) || (n.Op == OpOr && c.Val.Bool())
		}
		return fold(&Bin{Op: n.Op, Left: l, Right: r}, decided || isConst(l) && isConst(r))
	default: // *Const, *Arg
		return e, nil
	}
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// fold replaces n by the constant the interpreter evaluates it to when ok;
// n then reads no Arg, so it needs neither a schema nor a row.
func fold(n Expr, ok bool) (Expr, error) {
	if !ok {
		return n, nil
	}
	fn, err := compileNode(n, nil)
	if err != nil {
		return nil, err
	}
	return &Const{Val: fn(nil)}, nil
}
