// Package expr provides the expression language used in selection
// predicates, join conditions, projections, and aggregate arguments.
// Expressions are compiled against a schema once (resolving column names to
// positions) and then evaluated against rows with no per-call allocation —
// the Gibbs rejection sampler evaluates the final predicate and aggregate
// expression for every candidate value.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Expr is a node in the expression tree.
type Expr interface {
	// String renders the expression in SQL-ish syntax.
	String() string
	// walk visits this node and its children.
	walk(func(Expr))
}

// Col references a column by name. Resolution to a position happens at
// Compile time.
type Col struct {
	Name string
}

func (c *Col) String() string    { return c.Name }
func (c *Col) walk(f func(Expr)) { f(c) }

// Const is a literal value.
type Const struct {
	Val types.Value
}

func (c *Const) String() string {
	if c.Val.Kind() == types.KindString {
		return "'" + c.Val.Str() + "'"
	}
	return c.Val.String()
}
func (c *Const) walk(f func(Expr)) { f(c) }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the operator's SQL spelling.
func (op BinOp) String() string { return opNames[op] }

// Bin is a binary operation.
type Bin struct {
	Op          BinOp
	Left, Right Expr
}

func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}
func (b *Bin) walk(f func(Expr)) { f(b); b.Left.walk(f); b.Right.walk(f) }

// Not negates a boolean expression.
type Not struct {
	Inner Expr
}

func (n *Not) String() string    { return "NOT " + n.Inner.String() }
func (n *Not) walk(f func(Expr)) { f(n); n.Inner.walk(f) }

// Neg is arithmetic negation.
type Neg struct {
	Inner Expr
}

func (n *Neg) String() string    { return "-" + n.Inner.String() }
func (n *Neg) walk(f func(Expr)) { f(n); n.Inner.walk(f) }

// Convenience constructors used by the planner and tests.

// C builds a column reference.
func C(name string) Expr { return &Col{Name: name} }

// I builds an integer literal.
func I(v int64) Expr { return &Const{Val: types.NewInt(v)} }

// F builds a float literal.
func F(v float64) Expr { return &Const{Val: types.NewFloat(v)} }

// S builds a string literal.
func S(v string) Expr { return &Const{Val: types.NewString(v)} }

// B builds a binary operation.
func B(op BinOp, l, r Expr) Expr { return &Bin{Op: op, Left: l, Right: r} }

// And conjoins expressions; And() returns a constant TRUE.
func And(es ...Expr) Expr {
	if len(es) == 0 {
		return &Const{Val: types.NewBool(true)}
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &Bin{Op: OpAnd, Left: out, Right: e}
	}
	return out
}

// Columns returns the distinct column names referenced by e, in first-seen
// order.
func Columns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	e.walk(func(n Expr) {
		if c, ok := n.(*Col); ok {
			key := strings.ToLower(c.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, c.Name)
			}
		}
	})
	return out
}

// RenameColumns returns a copy of e with every column name passed through
// f; the planner uses it to qualify unqualified references. Nodes without
// column references are shared, not copied.
func RenameColumns(e Expr, f func(string) string) Expr {
	switch n := e.(type) {
	case *Col:
		if renamed := f(n.Name); renamed != n.Name {
			return &Col{Name: renamed}
		}
		return n
	case *Bin:
		return &Bin{Op: n.Op, Left: RenameColumns(n.Left, f), Right: RenameColumns(n.Right, f)}
	case *Not:
		return &Not{Inner: RenameColumns(n.Inner, f)}
	case *Neg:
		return &Neg{Inner: RenameColumns(n.Inner, f)}
	default:
		return e
	}
}

// Compiled is an expression bound to a schema, ready for evaluation.
type Compiled struct {
	eval func(types.Row) types.Value
	src  Expr
}

// Compile resolves column references in e against schema. It returns an
// error naming any unresolvable column.
func Compile(e Expr, schema *types.Schema) (*Compiled, error) {
	fn, err := compileNode(e, schema)
	if err != nil {
		return nil, err
	}
	return &Compiled{eval: fn, src: e}, nil
}

// MustCompile is Compile but panics on error; for planner-generated
// expressions whose columns are known to exist.
func MustCompile(e Expr, schema *types.Schema) *Compiled {
	c, err := Compile(e, schema)
	if err != nil {
		panic(err)
	}
	return c
}

// Eval evaluates the expression against a row.
func (c *Compiled) Eval(row types.Row) types.Value { return c.eval(row) }

// EvalBool evaluates as a predicate: NULL and non-boolean results are
// false (SQL WHERE semantics).
func (c *Compiled) EvalBool(row types.Row) bool {
	v := c.eval(row)
	return v.Kind() == types.KindBool && v.Bool()
}

// Source returns the expression the Compiled was built from.
func (c *Compiled) Source() Expr { return c.src }

func compileNode(e Expr, schema *types.Schema) (func(types.Row) types.Value, error) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		return func(types.Row) types.Value { return v }, nil
	case *Col:
		idx := schema.Lookup(n.Name)
		if idx < 0 {
			return nil, fmt.Errorf("expr: column %q not found in schema %s", n.Name, schema)
		}
		return func(r types.Row) types.Value { return r[idx] }, nil
	case *Arg:
		i := n.I
		return func(r types.Row) types.Value { return r[i] }, nil
	case *Neg:
		inner, err := compileNode(n.Inner, schema)
		if err != nil {
			return nil, err
		}
		return func(r types.Row) types.Value {
			v := inner(r)
			switch v.Kind() {
			case types.KindInt:
				return types.NewInt(-v.Int())
			case types.KindFloat:
				return types.NewFloat(-v.Float())
			default:
				return types.Null
			}
		}, nil
	case *Not:
		inner, err := compileNode(n.Inner, schema)
		if err != nil {
			return nil, err
		}
		return func(r types.Row) types.Value {
			v := inner(r)
			if v.Kind() != types.KindBool {
				return types.Null
			}
			return types.NewBool(!v.Bool())
		}, nil
	case *Bin:
		l, err := compileNode(n.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(n.Right, schema)
		if err != nil {
			return nil, err
		}
		return compileBin(n.Op, l, r)
	default:
		return nil, fmt.Errorf("expr: unknown node type %T", e)
	}
}

func compileBin(op BinOp, l, r func(types.Row) types.Value) (func(types.Row) types.Value, error) {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv:
		return func(row types.Row) types.Value {
			a, b := l(row), r(row)
			return arith(op, a, b)
		}, nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return func(row types.Row) types.Value {
			a, b := l(row), r(row)
			return compare(op, a, b)
		}, nil
	case OpAnd:
		return func(row types.Row) types.Value {
			a := l(row)
			if a.Kind() == types.KindBool && !a.Bool() {
				return types.NewBool(false)
			}
			b := r(row)
			if a.IsNull() || b.IsNull() {
				return types.Null
			}
			if a.Kind() != types.KindBool || b.Kind() != types.KindBool {
				return types.Null
			}
			return types.NewBool(a.Bool() && b.Bool())
		}, nil
	case OpOr:
		return func(row types.Row) types.Value {
			a := l(row)
			if a.Kind() == types.KindBool && a.Bool() {
				return types.NewBool(true)
			}
			b := r(row)
			if a.IsNull() || b.IsNull() {
				return types.Null
			}
			if a.Kind() != types.KindBool || b.Kind() != types.KindBool {
				return types.Null
			}
			return types.NewBool(a.Bool() || b.Bool())
		}, nil
	default:
		return nil, fmt.Errorf("expr: unknown operator %d", op)
	}
}

func arith(op BinOp, a, b types.Value) types.Value {
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	// INT op INT stays INT (except division, which promotes).
	if a.Kind() == types.KindInt && b.Kind() == types.KindInt && op != OpDiv {
		x, y := a.Int(), b.Int()
		switch op {
		case OpAdd:
			return types.NewInt(x + y)
		case OpSub:
			return types.NewInt(x - y)
		case OpMul:
			return types.NewInt(x * y)
		}
	}
	x, ok1 := a.AsFloat()
	y, ok2 := b.AsFloat()
	if !ok1 || !ok2 {
		return types.Null
	}
	switch op {
	case OpAdd:
		return types.NewFloat(x + y)
	case OpSub:
		return types.NewFloat(x - y)
	case OpMul:
		return types.NewFloat(x * y)
	case OpDiv:
		if y == 0 {
			return types.Null
		}
		return types.NewFloat(x / y)
	}
	return types.Null
}

func compare(op BinOp, a, b types.Value) types.Value {
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	// Mixed numeric/non-numeric comparisons other than equality are
	// meaningless; equality across kinds uses Value.Equal semantics.
	switch op {
	case OpEq:
		return types.NewBool(a.Equal(b))
	case OpNe:
		return types.NewBool(!a.Equal(b))
	}
	if (a.IsNumeric() != b.IsNumeric()) || (a.Kind() == types.KindString) != (b.Kind() == types.KindString) {
		return types.Null
	}
	c := a.Compare(b)
	switch op {
	case OpLt:
		return types.NewBool(c < 0)
	case OpLe:
		return types.NewBool(c <= 0)
	case OpGt:
		return types.NewBool(c > 0)
	case OpGe:
		return types.NewBool(c >= 0)
	}
	return types.Null
}

// SplitConjuncts flattens nested ANDs into a list of conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.Left), SplitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// EquiJoinSides inspects a conjunct of the form "a = b" where each side is a
// single column, returning the two column names. ok is false otherwise.
func EquiJoinSides(e Expr) (left, right string, ok bool) {
	b, isBin := e.(*Bin)
	if !isBin || b.Op != OpEq {
		return "", "", false
	}
	lc, lok := b.Left.(*Col)
	rc, rok := b.Right.(*Col)
	if !lok || !rok {
		return "", "", false
	}
	return lc.Name, rc.Name, true
}
