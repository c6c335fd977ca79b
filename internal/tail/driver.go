package tail

import (
	"fmt"

	"repro/internal/gibbs"
)

// Options configures tail sampling beyond the statistical essentials.
type Options struct {
	// TotalSamples is the budget N across all bootstrapping steps; when 0
	// it is derived from MSRETarget (default target 0.05).
	TotalSamples int
	// MSRETarget selects N via ChooseN when TotalSamples is 0.
	MSRETarget float64
	// K is the number of Gibbs updating steps per bootstrapping step
	// (default 1, per the paper's experiments).
	K int
	// ForceM overrides the Theorem 1 choice of m when positive.
	ForceM int
	// MaxTriesPerUpdate bounds rejection sampling (see gibbs.Config).
	MaxTriesPerUpdate int
	// Parallelism is the number of worker goroutines for batch version
	// recomputation (see gibbs.Config.Parallelism); <= 1 is sequential.
	Parallelism int
}

// Configure converts user-level options into a gibbs.Config using the
// Appendix C parameter selection.
func Configure(p float64, l int, opts Options) (gibbs.Config, error) {
	if l < 1 {
		return gibbs.Config{}, fmt.Errorf("tail: need l >= 1 tail samples, got %d", l)
	}
	total := opts.TotalSamples
	if total == 0 {
		target := opts.MSRETarget
		if target == 0 {
			target = 0.05
		}
		n, err := ChooseN(p, target, 0)
		if err != nil {
			return gibbs.Config{}, err
		}
		total = n
	}
	params, err := Choose(total, p)
	if err != nil {
		return gibbs.Config{}, err
	}
	if opts.ForceM > 0 {
		params.M = opts.ForceM
		params.NPerStep = total / opts.ForceM
		if params.NPerStep < 2 {
			params.NPerStep = 2
		}
	}
	return gibbs.Config{
		N:                 params.NPerStep,
		M:                 params.M,
		P:                 p,
		L:                 l,
		K:                 opts.K,
		MaxTriesPerUpdate: opts.MaxTriesPerUpdate,
		Parallelism:       opts.Parallelism,
	}, nil
}
