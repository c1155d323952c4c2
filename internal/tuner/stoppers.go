package tuner

// HeuristicStopper is the traditional early stopper the paper compares
// against (after Golovin et al.): stop when the best perf has not improved
// by at least MinImprovement (relative) over the last Window iterations.
// The paper's baseline uses 5% over 5 iterations.
type HeuristicStopper struct {
	Window         int     // default 5
	MinImprovement float64 // default 0.05

	history []float64
}

// NewHeuristicStopper returns the paper's 5%/5-iteration configuration.
func NewHeuristicStopper() *HeuristicStopper {
	return &HeuristicStopper{Window: 5, MinImprovement: 0.05}
}

// Stop implements Stopper. Zero-valued thresholds behave as the paper's
// defaults (5% over 5 iterations) without mutating the configured fields,
// so a stopper's public state after any number of Stop calls equals its
// initial state.
func (h *HeuristicStopper) Stop(iteration int, bestPerf float64) bool {
	window := h.Window
	if window <= 0 {
		window = 5
	}
	minImp := h.MinImprovement
	if minImp == 0 {
		minImp = 0.05
	}
	h.history = append(h.history, bestPerf)
	if len(h.history) <= window {
		return false
	}
	ref := h.history[len(h.history)-1-window]
	if ref <= 0 {
		return false
	}
	return (bestPerf-ref)/ref < minImp
}

// Reset implements Stopper: it restores the stopper to its full initial
// state. Since Stop never mutates the configured thresholds, dropping the
// history makes the stopper indistinguishable from a freshly constructed
// one with the same Window and MinImprovement.
func (h *HeuristicStopper) Reset() { h.history = nil }

// OracleStopper stops the moment best perf reaches a known target — the
// paper's "Maximizing Performance" stopping policy, which assumes a
// perfect model that recognizes the optimum immediately (§IV-C).
type OracleStopper struct {
	Target float64
}

// Stop implements Stopper.
func (o *OracleStopper) Stop(_ int, bestPerf float64) bool {
	return bestPerf >= o.Target
}

// Reset implements Stopper.
func (o *OracleStopper) Reset() {}
