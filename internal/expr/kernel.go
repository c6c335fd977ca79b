// Vectorized kernel compilation. CompileKernel lowers an expression into
// typed column kernels: every node is statically typed from the schema's
// column kinds and evaluates over flat lanes ([]float64, []int64, []bool,
// []string) plus a per-node null mask, instead of the closure-tree
// interpreter's boxed types.Value calls. The batch executor gathers column
// vectors once per batch, then each operator runs as a tight loop over its
// operand lanes; predicates additionally get fused compare-and-filter
// kernels that emit a selection vector directly.
//
// Semantics are pinned to the interpreter bit-for-bit (differential tests
// and FuzzKernelVsInterpreter enforce this): NULL propagation, the
// asymmetric AND/OR short-circuits, INT op INT staying INT, division-by-
// zero yielding NULL, NaN ordering through Value.Compare, and cross-kind
// equality via Value.Equal are all reproduced exactly. Static typing is
// sound because gathering verifies every value against the declared
// column kind: KVec.Set/Fill return false on a mismatch and the caller
// falls back to the interpreter for that batch. Statically untypable
// subtrees (arith over strings, ordered compares across kinds, NOT of a
// non-boolean) lower to constant-NULL lanes, which is exactly the value
// the interpreter computes for them.
package expr

import (
	"fmt"

	"repro/internal/types"
)

// kop enumerates the typed kernel operations.
type kop uint8

const (
	kCol kop = iota
	kConstI
	kConstF
	kConstB
	kConstS
	kNull // statically-NULL result (all-null lane)
	kNegI
	kNegF
	kNot
	kIToF // int64 lane -> float64 lane (AsFloat semantics)
	kBToF // bool lane -> float64 lane (AsFloat semantics)
	kAddI
	kSubI
	kMulI
	kAddF
	kSubF
	kMulF
	kDivF
	kEqI
	kNeI
	kLtI
	kLeI
	kGtI
	kGeI
	kEqF
	kNeF
	kLtF
	kLeF
	kGtF
	kGeF
	kEqB
	kNeB
	kLtB
	kLeB
	kGtB
	kGeB
	kEqS
	kNeS
	kLtS
	kLeS
	kGtS
	kGeS
	kEqMis // equality across statically incompatible kinds: constant false
	kNeMis // inequality across statically incompatible kinds: constant true
	kAnd
	kOr
)

// KVec is one gathered input column of a Kernel: a typed lane matching the
// schema's declared kind plus a null mask. Callers fill it with Set/Fill
// between Begin and an Eval call; both return false when a value's runtime
// kind contradicts the declared column kind (the caller must then fall
// back to the interpreter for the whole batch — the kernel's static typing
// no longer describes the data).
type KVec struct {
	slot int
	kind types.Kind
	f    []float64
	i    []int64
	b    []bool
	s    []string
	null []bool
}

// Slot returns the schema slot this vector gathers.
func (c *KVec) Slot() int { return c.slot }

// Set writes row i's value.
func (c *KVec) Set(i int, v types.Value) bool {
	if v.IsNull() {
		c.null[i] = true
		return true
	}
	if v.Kind() != c.kind {
		return false
	}
	c.null[i] = false
	switch c.kind {
	case types.KindInt:
		c.i[i] = v.Int()
	case types.KindFloat:
		c.f[i] = v.Float()
	case types.KindBool:
		c.b[i] = v.Bool()
	case types.KindString:
		c.s[i] = v.Str()
	}
	return true
}

// Fill broadcasts one value to rows [0, n) — the gather for a column that
// is constant across the batch (e.g. a tuple's deterministic attributes
// while sweeping its replicate window).
func (c *KVec) Fill(n int, v types.Value) bool {
	if v.IsNull() {
		fillBool(c.null[:n], true)
		return true
	}
	if v.Kind() != c.kind {
		return false
	}
	fillBool(c.null[:n], false)
	switch c.kind {
	case types.KindInt:
		x := v.Int()
		for j := range c.i[:n] {
			c.i[j] = x
		}
	case types.KindFloat:
		x := v.Float()
		for j := range c.f[:n] {
			c.f[j] = x
		}
	case types.KindBool:
		x := v.Bool()
		for j := range c.b[:n] {
			c.b[j] = x
		}
	case types.KindString:
		x := v.Str()
		for j := range c.s[:n] {
			c.s[j] = x
		}
	}
	return true
}

// Gather writes rows [0, n) from a strided value arena: row i reads
// vals[off+i*stride] — one column of a seed window's flat rows. It is n
// Set calls with the kind switch hoisted out of the loop: NULLs set the
// null lane, and it returns false at the first value whose kind
// contradicts the column's, rows before it already written.
func (c *KVec) Gather(n int, vals []types.Value, off, stride int) bool {
	null := c.null[:n]
	switch c.kind {
	case types.KindFloat:
		f := c.f[:n]
		for i := range f {
			v := &vals[off+i*stride]
			switch v.Kind() {
			case types.KindFloat:
				f[i], null[i] = v.Float(), false
			case types.KindNull:
				null[i] = true
			default:
				return false
			}
		}
		return true
	case types.KindInt:
		x := c.i[:n]
		for i := range x {
			v := &vals[off+i*stride]
			switch v.Kind() {
			case types.KindInt:
				x[i], null[i] = v.Int(), false
			case types.KindNull:
				null[i] = true
			default:
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		if !c.Set(i, vals[off+i*stride]) {
			return false
		}
	}
	return true
}

func (c *KVec) grow(n int) {
	growBools(&c.null, n)
	switch c.kind {
	case types.KindInt:
		growInts(&c.i, n)
	case types.KindFloat:
		growFloats(&c.f, n)
	case types.KindBool:
		growBools(&c.b, n)
	case types.KindString:
		growStrings(&c.s, n)
	}
}

// knode is one typed operation in the lowered tree. Result lanes are
// allocated by Begin and reused across batches; kCol nodes alias their
// KVec's lanes instead of copying.
type knode struct {
	op   kop
	kind types.Kind // static result kind; KindNull for kNull
	a, b *knode
	col  *KVec

	// Constant payloads.
	ci int64
	cf float64
	cb bool
	cs string

	// Result lanes.
	f    []float64
	i    []int64
	bl   []bool
	s    []string
	null []bool
}

// Kernel is an expression lowered to typed column kernels, bound to a
// schema. Use per evaluation site (it owns scratch lanes; not safe for
// concurrent use):
//
//	k, err := expr.CompileKernel(pred, schema)
//	k.Begin(n)
//	for _, c := range k.Cols() { ... c.Set(i, v) / c.Fill(n, v) ... }
//	sel = k.EvalSel(sel[:0])
type Kernel struct {
	root  *knode
	nodes []*knode // post-order; root is last
	cols  []*KVec
	n     int
}

// CompileKernel lowers e against schema. An error means the expression
// cannot be kernel-lowered (unresolvable column, unknown node type) and
// the caller must keep the interpreter.
func CompileKernel(e Expr, schema *types.Schema) (*Kernel, error) {
	k := &Kernel{}
	bySlot := map[int]*KVec{}
	root, err := k.lower(e, schema, bySlot)
	if err != nil {
		return nil, err
	}
	k.root = root
	return k, nil
}

// Kernel lowers the compiled expression's source against schema — the
// vectorized twin of the Compiled the caller already holds.
func (c *Compiled) Kernel(schema *types.Schema) (*Kernel, error) {
	return CompileKernel(c.src, schema)
}

// Cols returns the gathered input columns, one per referenced schema
// slot (deduplicated).
func (k *Kernel) Cols() []*KVec { return k.cols }

// Kind returns the expression's static result kind; KindNull means the
// result is NULL in every row.
func (k *Kernel) Kind() types.Kind { return k.root.kind }

func (k *Kernel) add(nd *knode) *knode {
	k.nodes = append(k.nodes, nd)
	return nd
}

func (k *Kernel) nullNode() *knode {
	return k.add(&knode{op: kNull, kind: types.KindNull})
}

func isNumericKind(kd types.Kind) bool {
	return kd == types.KindInt || kd == types.KindFloat
}

// toFloat inserts an int/bool -> float conversion (AsFloat semantics);
// identity on float nodes.
func (k *Kernel) toFloat(nd *knode) *knode {
	switch nd.kind {
	case types.KindFloat:
		return nd
	case types.KindInt:
		return k.add(&knode{op: kIToF, kind: types.KindFloat, a: nd})
	default: // KindBool
		return k.add(&knode{op: kBToF, kind: types.KindFloat, a: nd})
	}
}

// asBool coerces an And/Or operand: a statically non-boolean operand
// behaves exactly like an all-NULL boolean lane under the interpreter's
// AND/OR rules (see the differential tests), so it lowers to kNull. The
// operand subtree was already compiled, keeping its columns registered —
// the gather-time kind check still guards the whole expression.
func (k *Kernel) asBool(nd *knode) *knode {
	if nd.kind == types.KindBool {
		return nd
	}
	return k.nullNode()
}

func (k *Kernel) lower(e Expr, schema *types.Schema, bySlot map[int]*KVec) (*knode, error) {
	switch n := e.(type) {
	case *Const:
		switch n.Val.Kind() {
		case types.KindNull:
			return k.nullNode(), nil
		case types.KindInt:
			return k.add(&knode{op: kConstI, kind: types.KindInt, ci: n.Val.Int()}), nil
		case types.KindFloat:
			return k.add(&knode{op: kConstF, kind: types.KindFloat, cf: n.Val.Float()}), nil
		case types.KindBool:
			return k.add(&knode{op: kConstB, kind: types.KindBool, cb: n.Val.Bool()}), nil
		case types.KindString:
			return k.add(&knode{op: kConstS, kind: types.KindString, cs: n.Val.Str()}), nil
		default:
			return nil, fmt.Errorf("expr: kernel: unknown constant kind %v", n.Val.Kind())
		}
	case *Col:
		idx := schema.Lookup(n.Name)
		if idx < 0 {
			return nil, fmt.Errorf("expr: column %q not found in schema %s", n.Name, schema)
		}
		col := bySlot[idx]
		if col == nil {
			col = &KVec{slot: idx, kind: schema.Col(idx).Kind}
			bySlot[idx] = col
			k.cols = append(k.cols, col)
		}
		if col.kind == types.KindNull {
			// A declared-NULL column holds only NULLs (gathering enforces
			// it), so references are statically NULL. The column stays
			// registered: a non-NULL runtime value still forces fallback.
			return k.nullNode(), nil
		}
		return k.add(&knode{op: kCol, kind: col.kind, col: col}), nil
	case *Neg:
		a, err := k.lower(n.Inner, schema, bySlot)
		if err != nil {
			return nil, err
		}
		switch a.kind {
		case types.KindInt:
			return k.add(&knode{op: kNegI, kind: types.KindInt, a: a}), nil
		case types.KindFloat:
			return k.add(&knode{op: kNegF, kind: types.KindFloat, a: a}), nil
		default:
			return k.nullNode(), nil
		}
	case *Not:
		a, err := k.lower(n.Inner, schema, bySlot)
		if err != nil {
			return nil, err
		}
		if a.kind != types.KindBool {
			return k.nullNode(), nil
		}
		return k.add(&knode{op: kNot, kind: types.KindBool, a: a}), nil
	case *Bin:
		a, err := k.lower(n.Left, schema, bySlot)
		if err != nil {
			return nil, err
		}
		b, err := k.lower(n.Right, schema, bySlot)
		if err != nil {
			return nil, err
		}
		return k.lowerBin(n.Op, a, b)
	default:
		return nil, fmt.Errorf("expr: kernel: unknown node type %T", e)
	}
}

func (k *Kernel) lowerBin(op BinOp, a, b *knode) (*knode, error) {
	la, lb := a.kind, b.kind
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv:
		if la == types.KindNull || lb == types.KindNull ||
			la == types.KindString || lb == types.KindString {
			// NULL operands propagate; string operands fail AsFloat — the
			// interpreter yields NULL either way.
			return k.nullNode(), nil
		}
		if la == types.KindInt && lb == types.KindInt && op != OpDiv {
			return k.add(&knode{op: kAddI + kop(op-OpAdd), kind: types.KindInt, a: a, b: b}), nil
		}
		return k.add(&knode{op: kAddF + kop(op-OpAdd), kind: types.KindFloat, a: k.toFloat(a), b: k.toFloat(b)}), nil
	case OpEq, OpNe:
		switch {
		case la == types.KindNull || lb == types.KindNull:
			return k.nullNode(), nil
		case la == lb:
			base := map[types.Kind]kop{
				types.KindInt: kEqI, types.KindFloat: kEqF,
				types.KindBool: kEqB, types.KindString: kEqS,
			}[la]
			if op == OpNe {
				base++
			}
			return k.add(&knode{op: base, kind: types.KindBool, a: a, b: b}), nil
		case isNumericKind(la) && isNumericKind(lb):
			base := kEqF
			if op == OpNe {
				base = kNeF
			}
			return k.add(&knode{op: base, kind: types.KindBool, a: k.toFloat(a), b: k.toFloat(b)}), nil
		default:
			// Statically incompatible kinds: Value.Equal is false for every
			// non-NULL pair; only the null masks matter.
			base := kEqMis
			if op == OpNe {
				base = kNeMis
			}
			return k.add(&knode{op: base, kind: types.KindBool, a: a, b: b}), nil
		}
	case OpLt, OpLe, OpGt, OpGe:
		rel := kop(op - OpLt) // 0..3 over Lt,Le,Gt,Ge
		switch {
		case la == types.KindNull || lb == types.KindNull:
			return k.nullNode(), nil
		case la == types.KindInt && lb == types.KindInt:
			return k.add(&knode{op: kLtI + rel, kind: types.KindBool, a: a, b: b}), nil
		case isNumericKind(la) && isNumericKind(lb):
			return k.add(&knode{op: kLtF + rel, kind: types.KindBool, a: k.toFloat(a), b: k.toFloat(b)}), nil
		case la == types.KindBool && lb == types.KindBool:
			return k.add(&knode{op: kLtB + rel, kind: types.KindBool, a: a, b: b}), nil
		case la == types.KindString && lb == types.KindString:
			return k.add(&knode{op: kLtS + rel, kind: types.KindBool, a: a, b: b}), nil
		default:
			// Ordered compares across numeric/non-numeric or string/non-
			// string kinds are NULL in the interpreter.
			return k.nullNode(), nil
		}
	case OpAnd:
		return k.add(&knode{op: kAnd, kind: types.KindBool, a: k.asBool(a), b: k.asBool(b)}), nil
	case OpOr:
		return k.add(&knode{op: kOr, kind: types.KindBool, a: k.asBool(a), b: k.asBool(b)}), nil
	default:
		return nil, fmt.Errorf("expr: kernel: unknown operator %d", op)
	}
}

// Begin prepares the kernel for a batch of n rows: lanes are grown (never
// shrunk — they are reused across batches) and constant lanes refilled.
// Callers gather the Cols() next, then call an Eval method.
func (k *Kernel) Begin(n int) {
	k.n = n
	for _, c := range k.cols {
		c.grow(n)
	}
	for _, nd := range k.nodes {
		switch nd.op {
		case kCol:
			// Alias the gathered column's lanes; no copy.
			nd.f, nd.i, nd.bl, nd.s, nd.null = nd.col.f, nd.col.i, nd.col.b, nd.col.s, nd.col.null
		case kConstI:
			growInts(&nd.i, n)
			growBools(&nd.null, n)
			for j := range nd.i[:n] {
				nd.i[j] = nd.ci
			}
			fillBool(nd.null[:n], false)
		case kConstF:
			growFloats(&nd.f, n)
			growBools(&nd.null, n)
			for j := range nd.f[:n] {
				nd.f[j] = nd.cf
			}
			fillBool(nd.null[:n], false)
		case kConstB:
			growBools(&nd.bl, n)
			growBools(&nd.null, n)
			fillBool(nd.bl[:n], nd.cb)
			fillBool(nd.null[:n], false)
		case kConstS:
			growStrings(&nd.s, n)
			growBools(&nd.null, n)
			for j := range nd.s[:n] {
				nd.s[j] = nd.cs
			}
			fillBool(nd.null[:n], false)
		case kNull:
			// All-null lane; the bool lane exists so AND/OR operand reads
			// stay in-bounds (its values are never observed).
			growBools(&nd.bl, n)
			growBools(&nd.null, n)
			fillBool(nd.null[:n], true)
		default:
			growBools(&nd.null, n)
			switch nd.kind {
			case types.KindInt:
				growInts(&nd.i, n)
			case types.KindFloat:
				growFloats(&nd.f, n)
			case types.KindBool:
				growBools(&nd.bl, n)
			case types.KindString:
				growStrings(&nd.s, n)
			}
		}
	}
}

// run evaluates the listed nodes (post-order prefix of k.nodes) over rows
// [0, k.n).
func (k *Kernel) run(nodes []*knode) {
	n := k.n
	for _, nd := range nodes {
		a, b := nd.a, nd.b
		switch nd.op {
		case kCol, kConstI, kConstF, kConstB, kConstS, kNull:
			// Ready since Begin / gather.
		case kNegI:
			for j := 0; j < n; j++ {
				nd.i[j] = -a.i[j]
			}
			copy(nd.null[:n], a.null[:n])
		case kNegF:
			for j := 0; j < n; j++ {
				nd.f[j] = -a.f[j]
			}
			copy(nd.null[:n], a.null[:n])
		case kNot:
			for j := 0; j < n; j++ {
				nd.bl[j] = !a.bl[j]
			}
			copy(nd.null[:n], a.null[:n])
		case kIToF:
			for j := 0; j < n; j++ {
				nd.f[j] = float64(a.i[j])
			}
			copy(nd.null[:n], a.null[:n])
		case kBToF:
			for j := 0; j < n; j++ {
				if a.bl[j] {
					nd.f[j] = 1
				} else {
					nd.f[j] = 0
				}
			}
			copy(nd.null[:n], a.null[:n])
		case kAddI:
			for j := 0; j < n; j++ {
				nd.i[j] = a.i[j] + b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kSubI:
			for j := 0; j < n; j++ {
				nd.i[j] = a.i[j] - b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kMulI:
			for j := 0; j < n; j++ {
				nd.i[j] = a.i[j] * b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kAddF:
			for j := 0; j < n; j++ {
				nd.f[j] = a.f[j] + b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kSubF:
			for j := 0; j < n; j++ {
				nd.f[j] = a.f[j] - b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kMulF:
			for j := 0; j < n; j++ {
				nd.f[j] = a.f[j] * b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kDivF:
			for j := 0; j < n; j++ {
				y := b.f[j]
				if y == 0 {
					nd.null[j] = true
					continue
				}
				nd.f[j] = a.f[j] / y
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kEqI:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.i[j] == b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kNeI:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.i[j] != b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLtI:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.i[j] < b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLeI:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.i[j] <= b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGtI:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.i[j] > b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGeI:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.i[j] >= b.i[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kEqF:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.f[j] == b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kNeF:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.f[j] != b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		// The ordered float forms mirror Value.Compare, which returns 0
		// when neither side is less — so NaN pairs satisfy <= and >=.
		case kLtF:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.f[j] < b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLeF:
			for j := 0; j < n; j++ {
				nd.bl[j] = !(a.f[j] > b.f[j])
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGtF:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.f[j] > b.f[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGeF:
			for j := 0; j < n; j++ {
				nd.bl[j] = !(a.f[j] < b.f[j])
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kEqB:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.bl[j] == b.bl[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kNeB:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.bl[j] != b.bl[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLtB: // false < true (Value.Compare on the bool payload)
			for j := 0; j < n; j++ {
				nd.bl[j] = !a.bl[j] && b.bl[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLeB:
			for j := 0; j < n; j++ {
				nd.bl[j] = !a.bl[j] || b.bl[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGtB:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.bl[j] && !b.bl[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGeB:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.bl[j] || !b.bl[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kEqS:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.s[j] == b.s[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kNeS:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.s[j] != b.s[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLtS:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.s[j] < b.s[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kLeS:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.s[j] <= b.s[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGtS:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.s[j] > b.s[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kGeS:
			for j := 0; j < n; j++ {
				nd.bl[j] = a.s[j] >= b.s[j]
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kEqMis:
			for j := 0; j < n; j++ {
				nd.bl[j] = false
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kNeMis:
			for j := 0; j < n; j++ {
				nd.bl[j] = true
				nd.null[j] = a.null[j] || b.null[j]
			}
		case kAnd:
			// The interpreter's asymmetric AND: a non-null false left
			// operand short-circuits to false before any null check.
			for j := 0; j < n; j++ {
				switch {
				case !a.null[j] && !a.bl[j]:
					nd.bl[j], nd.null[j] = false, false
				case a.null[j] || b.null[j]:
					nd.null[j] = true
				default:
					nd.bl[j], nd.null[j] = a.bl[j] && b.bl[j], false
				}
			}
		case kOr:
			for j := 0; j < n; j++ {
				switch {
				case !a.null[j] && a.bl[j]:
					nd.bl[j], nd.null[j] = true, false
				case a.null[j] || b.null[j]:
					nd.null[j] = true
				default:
					nd.bl[j], nd.null[j] = a.bl[j] || b.bl[j], false
				}
			}
		}
	}
}

// EvalMask evaluates the expression as a predicate over rows [0, n):
// dst[i] is true iff the row's value is a non-NULL boolean true —
// Compiled.EvalBool's NULL-as-false WHERE semantics. dst must have at
// least n elements.
func (k *Kernel) EvalMask(dst []bool) {
	k.run(k.nodes)
	r := k.root
	if r.kind != types.KindBool {
		fillBool(dst[:k.n], false)
		return
	}
	for j := 0; j < k.n; j++ {
		dst[j] = r.bl[j] && !r.null[j]
	}
}

// EvalSel appends to sel the indexes of rows [0, n) passing the predicate
// (EvalBool semantics) and returns the extended slice — the fused
// compare-and-filter path: when the root is a comparison its operands are
// compared and filtered in one loop, with no intermediate boolean lane.
func (k *Kernel) EvalSel(sel []int) []int {
	r := k.root
	n := k.n
	a, b := r.a, r.b
	switch r.op {
	case kLtI, kLeI, kGtI, kGeI, kEqI, kNeI, kLtF, kLeF, kGtF, kGeF, kEqF, kNeF:
		k.run(k.nodes[:len(k.nodes)-1])
	default:
		k.run(k.nodes)
		if r.kind != types.KindBool {
			return sel
		}
		for j := 0; j < n; j++ {
			if r.bl[j] && !r.null[j] {
				sel = append(sel, j)
			}
		}
		return sel
	}
	switch r.op {
	case kLtI:
		for j := 0; j < n; j++ {
			if a.i[j] < b.i[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kLeI:
		for j := 0; j < n; j++ {
			if a.i[j] <= b.i[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kGtI:
		for j := 0; j < n; j++ {
			if a.i[j] > b.i[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kGeI:
		for j := 0; j < n; j++ {
			if a.i[j] >= b.i[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kEqI:
		for j := 0; j < n; j++ {
			if a.i[j] == b.i[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kNeI:
		for j := 0; j < n; j++ {
			if a.i[j] != b.i[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kLtF:
		for j := 0; j < n; j++ {
			if a.f[j] < b.f[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kLeF:
		for j := 0; j < n; j++ {
			if !(a.f[j] > b.f[j]) && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kGtF:
		for j := 0; j < n; j++ {
			if a.f[j] > b.f[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kGeF:
		for j := 0; j < n; j++ {
			if !(a.f[j] < b.f[j]) && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kEqF:
		for j := 0; j < n; j++ {
			if a.f[j] == b.f[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	case kNeF:
		for j := 0; j < n; j++ {
			if a.f[j] != b.f[j] && !(a.null[j] || b.null[j]) {
				sel = append(sel, j)
			}
		}
	}
	return sel
}

// EvalNumeric writes the expression's value over rows [0, n) under
// aggregate-input semantics: dst[i] is the float64 value (AsFloat — ints
// and bools convert, exactly as AggSpec.Contribution sees them) and
// null[i] marks rows whose value is NULL (the aggregate skips them). It
// returns false — writing nothing — when the static result kind is
// string, which the interpreter rejects with an error: callers must fall
// back so the error surfaces identically. Both slices need at least n
// elements.
func (k *Kernel) EvalNumeric(dst []float64, null []bool) bool {
	r := k.root
	switch r.kind {
	case types.KindFloat, types.KindInt, types.KindBool, types.KindNull:
	default:
		return false
	}
	k.run(k.nodes)
	n := k.n
	switch r.kind {
	case types.KindFloat:
		copy(dst[:n], r.f[:n])
		copy(null[:n], r.null[:n])
	case types.KindInt:
		for j := 0; j < n; j++ {
			dst[j] = float64(r.i[j])
		}
		copy(null[:n], r.null[:n])
	case types.KindBool:
		for j := 0; j < n; j++ {
			if r.bl[j] {
				dst[j] = 1
			} else {
				dst[j] = 0
			}
		}
		copy(null[:n], r.null[:n])
	case types.KindNull:
		fillBool(null[:n], true)
	}
	return true
}

func growFloats(s *[]float64, n int) {
	if cap(*s) < n {
		*s = make([]float64, n)
		return
	}
	*s = (*s)[:n]
}

func growInts(s *[]int64, n int) {
	if cap(*s) < n {
		*s = make([]int64, n)
		return
	}
	*s = (*s)[:n]
}

func growBools(s *[]bool, n int) {
	if cap(*s) < n {
		*s = make([]bool, n)
		return
	}
	*s = (*s)[:n]
}

func growStrings(s *[]string, n int) {
	if cap(*s) < n {
		*s = make([]string, n)
		return
	}
	*s = (*s)[:n]
}

func fillBool(s []bool, v bool) {
	for i := range s {
		s[i] = v
	}
}
