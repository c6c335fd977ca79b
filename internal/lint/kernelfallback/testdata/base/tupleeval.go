package fixtures

import (
	"repro/internal/bundle"
	"repro/internal/types"
)

// A hot loop that rebuilds every Gibbs tuple's row to evaluate it.
func rowRebuild(tuples []*bundle.Tuple, n int, buf types.Row) int {
	present := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		b := bundle.Binding{}
		for _, tu := range tuples {
			if _, ok, _ := tu.Eval(b, buf); ok { // want `\(\*bundle.Tuple\).Eval rebuilds .* loop of rowRebuild`
				present++
			}
		}
	}
	return present
}

// The audited fallback: presence vectors have no residual yet.
func presenceFallbackOK(tuples []*bundle.Tuple, n int, buf types.Row) int {
	present := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		b := bundle.Binding{}
		for _, tu := range tuples {
			//mcdbr:kernelfallback ok(presence vectors have no residual yet)
			if _, ok, _ := tu.Eval(b, buf); ok {
				present++
			}
		}
	}
	return present
}

// A hot loop that reaches Tuple.Eval through two same-package calls: the
// finding is at the Eval call, once, however many hot loops reach it.
func wrappedRebuild(tuples []*bundle.Tuple, n int, buf types.Row) int {
	present := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		present += countPresent(tuples, buf)
	}
	return present
}

func wrappedRebuildAgain(tuples []*bundle.Tuple, n int, buf types.Row) int {
	present := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		present += countPresent(tuples, buf)
	}
	return present
}

func countPresent(tuples []*bundle.Tuple, buf types.Row) int {
	present := 0
	for _, tu := range tuples {
		if isPresent(tu, buf) {
			present++
		}
	}
	return present
}

func isPresent(tu *bundle.Tuple, buf types.Row) bool {
	_, ok, _ := tu.Eval(bundle.Binding{}, buf) // want `\(\*bundle.Tuple\).Eval rebuilds .* loop of wrappedRebuild:`
	return ok
}

// The audited fallback behind a wrapper carries its suppression at the
// Eval call.
func wrappedFallbackOK(tuples []*bundle.Tuple, n int, buf types.Row) int {
	present := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		for _, tu := range tuples {
			if presenceOnly(tu, buf) {
				present++
			}
		}
	}
	return present
}

func presenceOnly(tu *bundle.Tuple, buf types.Row) bool {
	//mcdbr:kernelfallback ok(presence vectors have no residual yet)
	_, ok, _ := tu.Eval(bundle.Binding{}, buf)
	return ok
}

// No hotpath loop: a one-off evaluation is not the analyzer's business.
func coldEvalOK(tu *bundle.Tuple, buf types.Row) bool {
	_, ok, _ := tu.Eval(bundle.Binding{}, buf)
	return ok
}
