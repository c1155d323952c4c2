package cinterp

import (
	"fmt"

	"tunio/internal/csrc"
	"tunio/internal/hdf5"
)

// Result summarizes one SPMD execution.
type Result struct {
	// Output holds rank 0's printf strings.
	Output []string
	// LoopScale is the actual original-to-executed iteration ratio of
	// loop-reduced loops across all ranks (1 when no reduction ran). The
	// paper multiplies the kernel's scalable I/O metrics by this factor
	// to estimate the original application's footprint.
	LoopScale float64
}

// Run executes the program SPMD across the library's communicator, on the
// calling goroutine: each rank is interpreted to the end, logging its I/O
// and MPI calls, and the logs are then merged into the phases the ranks
// would have formed side by side, each collective arrival group a single
// simulated phase. On a live library (hdf5.NewLibrary) timing and counters
// land in lib.Sim(); a planning one (hdf5.NewPlanner) collects the phases'
// ops instead, which is all a recorder attached to it needs.
func Run(prog *csrc.File, lib *hdf5.Library) (*Result, error) {
	return run(prog, lib, 50_000_000)
}

// run is Run with each rank held to maxOps interpreter steps.
func run(prog *csrc.File, lib *hdf5.Library, maxOps int64) (*Result, error) {
	if prog == nil {
		return nil, fmt.Errorf("cinterp: nil program")
	}
	if prog.Func("main") == nil {
		return nil, fmt.Errorf("cinterp: program has no main")
	}
	ranks := interpret(prog, lib.Nprocs(), maxOps)
	err := newMerger(lib).run(ranks)

	res := &Result{Output: ranks[0].output, LoopScale: 1}
	var orig, reduced int64
	for _, in := range ranks {
		orig += in.loopOrig
		reduced += in.loopReduced
	}
	if reduced > 0 {
		res.LoopScale = float64(orig) / float64(reduced)
	}
	return res, err
}

// interpret resolves the program, once, and runs the ranks over the result
// one after another, each to the end of its main: what comes back is their
// logs and what stopped each.
func interpret(prog *csrc.File, nprocs int, maxOps int64) []*interp {
	resolved, sc := resolve(prog), newScratch()
	ranks := make([]*interp, nprocs)
	for r := range ranks {
		ranks[r] = newInterp(resolved, r, nprocs, maxOps, sc)
		if r > 0 {
			// SPMD: the previous rank's call count is the best guess at this one's
			ranks[r].log = make([]request, 0, len(ranks[r-1].log))
		}
		ranks[r].runMain()
	}
	return ranks
}
