package gibbs

import (
	"fmt"
	"slices"

	"repro/internal/bundle"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/seeds"
	"repro/internal/types"
)

// A Gibbs tuple is deterministic attributes plus references to TS-seeds
// (paper §7), and during a sampling run only the seeds' VG outputs change.
// So loadTuples folds each retained tuple's Det row into the aggregate
// expression and final predicate once (expr.Residual), leaving a residual
// that reads only the tuple's (seed, output) references, and the hot loops
// evaluate that instead of rebuilding the tuple's row.

// resForm is how a tuple's contribution is computed.
type resForm uint8

const (
	// resCompiled evaluates the compiled residuals over the compact row
	// of the tuple's random values.
	resCompiled resForm = iota
	// resPresence is the fallback for tuples with presence vectors:
	// Tuple.Eval on the full row.
	resPresence
	// resCount is COUNT without a final predicate: (0, 1).
	resCount
	// resX is an aggregate residual that is the tuple's one random value
	// x, with no final predicate. A FLOAT x is its own value, read in
	// place; any other kind goes to the compiled residual.
	resX
)

// residuals holds every retained tuple's contribution as a function of its
// seeds' VG rows, as arrays indexed like looper.rand.
type residuals struct {
	form []resForm
	// Tuple t's random references, in Tuple.Rand order, are
	// [refOff[t], refOff[t+1]): the seed, resolved once, and the output
	// column. Presence tuples have none here.
	refOff  []int
	refSeed []*seeds.TSSeed
	refOut  []int
	// agg and pred are the compiled residuals over the compact row; agg
	// is nil for COUNT and pred when there is no final predicate.
	agg, pred []*expr.Compiled
}

// compileResiduals builds lp.resid for lp.rand. A tuple whose random slots
// and whose deterministic values at the slots the expressions read are
// those of the tuple before it has that tuple's residuals, so a query
// whose aggregate reads only VG output (SUM(r.val)) compiles one.
func (lp *looper) compileResiduals() error {
	schema := lp.plan.Schema()
	var reads []int
	var aggSrc expr.Expr
	if lp.aggExpr != nil {
		aggSrc = lp.q.Agg.Expr
		for _, name := range expr.Columns(aggSrc) {
			reads = append(reads, schema.MustLookup(name))
		}
	}
	if lp.finalPred != nil {
		for _, name := range expr.Columns(lp.q.FinalPred) {
			reads = append(reads, schema.MustLookup(name))
		}
	}
	n, nRefs := len(lp.rand), 0
	for _, tu := range lp.rand {
		if len(tu.Pres) == 0 {
			nRefs += len(tu.Rand)
		}
	}
	r := residuals{
		form:   make([]resForm, n),
		refOff: make([]int, n+1), refSeed: make([]*seeds.TSSeed, 0, nRefs), refOut: make([]int, 0, nRefs),
		agg: make([]*expr.Compiled, n), pred: make([]*expr.Compiled, n),
	}
	var random, prevRandom []int
	prev := -1
	for t, tu := range lp.rand {
		r.refOff[t] = len(r.refSeed)
		if len(tu.Pres) > 0 {
			r.form[t] = resPresence
			continue
		}
		random = random[:0]
		for _, ref := range tu.Rand {
			random = append(random, ref.Slot)
			r.refSeed = append(r.refSeed, lp.ws.Seeds.MustGet(ref.SeedID))
			r.refOut = append(r.refOut, ref.Out)
		}
		if prev >= 0 && slices.Equal(random, prevRandom) && sameReads(reads, random, tu.Det, lp.rand[prev].Det) {
			r.form[t], r.agg[t], r.pred[t] = r.form[prev], r.agg[prev], r.pred[prev]
		} else {
			var aggRes expr.Expr
			var err error
			if aggSrc != nil {
				if aggRes, err = expr.Residual(aggSrc, schema, tu.Det, random); err != nil {
					return err
				}
				if r.agg[t], err = expr.Compile(aggRes, nil); err != nil {
					return err
				}
			}
			if lp.finalPred != nil {
				predRes, err := expr.Residual(lp.q.FinalPred, schema, tu.Det, random)
				if err != nil {
					return err
				}
				if r.pred[t], err = expr.Compile(predRes, nil); err != nil {
					return err
				}
			}
			switch a, isArg := aggRes.(*expr.Arg); {
			case lp.finalPred != nil:
			case aggSrc == nil:
				r.form[t] = resCount
			case isArg && a.I == 0 && len(random) == 1:
				r.form[t] = resX
			}
		}
		prev, random, prevRandom = t, prevRandom, random
	}
	r.refOff[n] = len(r.refSeed)
	lp.resid = r
	return nil
}

// sameReads reports whether two tuples with the same random slots agree
// bit for bit on every deterministic slot in reads.
func sameReads(reads, random []int, a, b types.Row) bool {
	for _, slot := range reads {
		if !slices.Contains(random, slot) && !a[slot].Identical(b[slot]) {
			return false
		}
	}
	return true
}

// arg returns random value k of the residual table: the output of its seed
// at version v's assignment, or at orow when the seed is over.
func (r *residuals) arg(k, v int, over *seeds.TSSeed, orow []types.Value) (types.Value, error) {
	s, out := r.refSeed[k], r.refOut[k]
	row := orow
	if s != over {
		var ok bool
		if row, ok = s.Row(v); !ok {
			return types.Null, fmt.Errorf("gibbs: seed %d position %d of version %d is neither materialized nor cached", s.ID, s.Assign[v], v)
		}
	}
	if out >= len(row) {
		return types.Null, fmt.Errorf("gibbs: seed %d output %d of %d", s.ID, out, len(row))
	}
	return row[out], nil
}

// residualContrib is tuple t's contribution to version v's aggregate, with
// seed over (when non-nil) bound to stream position pos, whose VG output
// row is orow, instead of v's assignment. buf is scratch for the compact
// row and the presence fallback; concurrent callers pass private rows.
func (lp *looper) residualContrib(t, v int, over *seeds.TSSeed, pos uint64, orow []types.Value, buf types.Row) (float64, int64, error) {
	r := &lp.resid
	lo, hi := r.refOff[t], r.refOff[t+1]
	switch r.form[t] {
	case resPresence:
		b := bundle.Bind(lp.ws.Seeds, v)
		if over != nil {
			b = b.WithOverride(over.ID, pos, orow)
		}
		return lp.contrib(lp.rand[t], b, buf)
	case resCount:
		return 0, 1, nil
	case resX:
		// Read x in place: a types.Value is 40 bytes.
		row := orow
		if s := r.refSeed[lo]; s != over {
			row, _ = s.Row(v)
		}
		// Anything but a FLOAT x, and a missing row or output, goes to
		// the compiled residual, which answers or reports the error.
		if out := r.refOut[lo]; out < len(row) && row[out].Kind() == types.KindFloat {
			return float64(lp.sign * row[out].Float()), 1, nil
		}
	}
	args := buf[:hi-lo]
	for i := range args {
		x, err := r.arg(lo+i, v, over, orow)
		if err != nil {
			return 0, 0, err
		}
		args[i] = x
	}
	if p := r.pred[t]; p != nil && !p.EvalBool(args) {
		return 0, 0, nil
	}
	if lp.q.Agg.Kind == exec.AggCount {
		return 0, 1, nil
	}
	return lp.q.Agg.ValueContribution(r.agg[t].Eval(args), lp.sign)
}
