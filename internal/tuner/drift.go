package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// The drift controller tunes *online* against a time-varying machine
// (cluster.Drift). It alternates two activities on the machine's
// absolute timeline:
//
//   - Service windows: the incumbent configuration replays the kernel's
//     trace at the current epoch, standing in for one live execution of
//     the application. The window's darshan-style counters yield its
//     bandwidth, and the wall clock advances by its runtime.
//   - Drift detection + re-tuning: each window's bandwidth is compared
//     against an EWMA expectation of the incumbent's profile; when the
//     relative deviation exceeds DriftConfig.Threshold for Patience
//     consecutive windows, the controller re-tunes at the current epoch
//     and announces it (RetuneEvent).
//
// Re-tuning is incremental. The default mode is a (1+λ) local search
// around the incumbent maximizing the paper's objective, app-layer
// bandwidth (workload.Perf). That objective admits SHAMan-style
// pruning: the trace's byte totals are config-independent constants and
// the app layer's read/write times only accumulate during replay, so
// full-bytes-over-partial-times is a monotonically falling upper bound
// on the candidate's final bandwidth — once it drops below the pruning
// floor (the incumbent's measured bandwidth, raised block by block to
// the best completed candidate's) the candidate is provably worse and
// its replay aborts (replay.ExecWhile). The candidate stream of every
// round is a pure function of (incumbent genome, seed, round index) and
// never of measured fitness, and a sound prune can only discard
// non-maximal candidates, so pruned and unpruned controllers select
// identical incumbents and produce bit-identical window curves while
// the pruned one evaluates strictly less simulated stage time.
// Alternatively DriftConfig.GA re-tunes with the full GA pipeline
// warm-started from the incumbent (Config.StartFrom); that mode forgoes
// the pruning guarantee.
//
// Everything is deterministic and worker-count independent: evaluation
// seeds derive from SeedFor(seed, round, genome), batches commit in
// candidate order, and the drift schedule itself is a pure function of
// simulated time.

// DriftConfig configures an online tuning run (RunDrift).
type DriftConfig struct {
	// Space is the tuned parameter space.
	Space []params.Parameter
	// Cluster is the machine, typically carrying a Drift schedule
	// (without one the controller still works — it just never needs to
	// re-tune).
	Cluster *cluster.Cluster
	// Trace is the kernel's recorded I/O trace; service windows and
	// candidate evaluations both replay it.
	Trace *replay.Trace
	// Cache, when non-nil, is a view on a shared stage cache with Trace
	// registered under its key (Kernel.View) to serve wire plans from —
	// stage artifacts are drift-independent: drift only affects stage-3
	// execution. Nil registers Trace in a private cache.
	Cache *replay.CacheView
	// Seed drives every stochastic choice.
	Seed int64

	// Windows is the number of service windows to run (default 40).
	Windows int
	// WindowGap is idle application time (seconds) between windows —
	// compute phases, queue wait — letting schedules with widely spaced
	// regime starts be exercised by short windows. Default 0.
	WindowGap float64
	// Threshold is the relative bandwidth deviation that counts as
	// drift (default 0.15), Patience the number of consecutive deviant
	// windows before a re-tune fires (default 2).
	Threshold float64
	Patience  int

	// Neighbors is the candidate count per local-search round (default
	// 12), Rounds the rounds per re-tune (default 3), InitRounds the
	// rounds of the initial tune (default 2*Rounds).
	Neighbors  int
	Rounds     int
	InitRounds int
	// Reps is the number of replays averaged per evaluation (default 1;
	// service windows always run once).
	Reps int
	// Prune enables SHAMan-style mid-replay pruning: a candidate's
	// replay aborts once its bandwidth upper bound (full trace bytes
	// over partial app-layer times) falls below the incumbent's measured
	// bandwidth. Local-search mode only, and requires Reps == 1 (an
	// averaged objective has no sound mid-replay bound).
	Prune bool
	// Parallelism is the worker count for candidate evaluation (default
	// 1); results are identical for any value >= 1.
	Parallelism int

	// GA, when non-nil, re-tunes with the genetic pipeline warm-started
	// from the incumbent instead of local search.
	GA *GARetune
	// Picker, when non-nil, masks which parameters local-search rounds
	// may mutate (the RL subset picker in continuous mode). It is fed
	// the latest measured window bandwidth.
	Picker SubsetPicker

	// Oracle additionally tracks an oracle controller that re-tunes at
	// every regime boundary with zero detection delay, recording its
	// per-window bandwidth (the regret baseline).
	Oracle bool

	// Progress observes every completed window; OnRetune every re-tune
	// announcement. Both run on the controller goroutine.
	Progress func(WindowPoint)
	OnRetune func(RetuneEvent)
}

// GARetune sizes the warm-started GA re-tune pipeline.
type GARetune struct {
	PopSize    int // default 8
	Iterations int // default 5
}

// WindowPoint is one completed service window.
type WindowPoint struct {
	Window    int     `json:"window"`
	Start     float64 `json:"start_s"` // epoch at window start
	Runtime   float64 `json:"runtime_s"`
	PerfMBs   float64 `json:"perf_mbs"`
	Expected  float64 `json:"expected_mbs"` // EWMA expectation going in
	Deviation float64 `json:"deviation"`    // (expected - perf) / expected
	Regime    int     `json:"regime"`       // drift regime index (-1 before the schedule)
	Retuned   bool    `json:"retuned"`      // a re-tune completed just before this window
	// OraclePerfMBs is the oracle controller's bandwidth for the same
	// window (only when DriftConfig.Oracle).
	OraclePerfMBs float64 `json:"oracle_perf_mbs,omitempty"`
}

// RetuneEvent announces one re-tune: why it fired, what it cost, and
// what it chose.
type RetuneEvent struct {
	// Window is the service window after which the re-tune ran.
	Window int     `json:"window"`
	TimeS  float64 `json:"time_s"` // epoch the re-tune ran at
	Reason string  `json:"reason"`
	Mode   string  `json:"mode"` // "local" or "ga"
	// DetectWindows is the detection delay: deviant windows observed
	// before triggering.
	DetectWindows int `json:"detect_windows"`
	// Evaluations/Pruned/EvalSimSeconds cost out the re-tune: candidate
	// evaluations run, how many were pruned mid-replay, and the total
	// simulated stage time they consumed.
	Evaluations    int     `json:"evaluations"`
	Pruned         int     `json:"pruned"`
	EvalSimSeconds float64 `json:"eval_sim_seconds"`
	// Changed lists the new incumbent's parameters that differ from the
	// library defaults.
	Changed []string `json:"changed_from_default,omitempty"`
}

// DriftResult is the outcome of an online tuning run.
type DriftResult struct {
	Windows []WindowPoint `json:"windows"`
	Retunes []RetuneEvent `json:"retunes"`
	// FinalGenome/FinalChanged describe the final incumbent; Final is
	// the assignment itself (not serialized).
	FinalGenome  []int              `json:"final_genome"`
	FinalChanged []string           `json:"final_changed_from_default,omitempty"`
	Final        *params.Assignment `json:"-"`
	// Evaluations counts every tuning evaluation (initial tune plus
	// re-tunes); PrunedEvals how many of them aborted mid-replay;
	// EvalSimSeconds their total simulated stage time — the quantity
	// pruning cuts.
	Evaluations    int     `json:"evaluations"`
	PrunedEvals    int     `json:"pruned_evals"`
	EvalSimSeconds float64 `json:"eval_sim_seconds"`
	// MeanPerf averages window bandwidth; the oracle fields mirror it
	// for the zero-delay oracle controller (only when Oracle).
	MeanPerf          float64 `json:"mean_perf_mbs"`
	OracleMeanPerf    float64 `json:"oracle_mean_perf_mbs,omitempty"`
	OracleEvalSeconds float64 `json:"oracle_eval_seconds,omitempty"`
}

func (c *DriftConfig) fillDefaults() {
	if c.Windows == 0 {
		c.Windows = 40
	}
	if c.Threshold == 0 {
		c.Threshold = 0.15
	}
	if c.Patience == 0 {
		c.Patience = 2
	}
	if c.Neighbors == 0 {
		c.Neighbors = 12
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.InitRounds == 0 {
		c.InitRounds = 2 * c.Rounds
	}
	if c.Reps == 0 {
		c.Reps = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.GA != nil {
		if c.GA.PopSize == 0 {
			c.GA.PopSize = 8
		}
		if c.GA.Iterations == 0 {
			c.GA.Iterations = 5
		}
	}
}

// Seed salts separating the controller's independent decision streams.
const (
	driftSaltCand   = 1 // candidate evaluation seeds
	driftSaltMutate = 2 // neighbor-generation RNG
	driftSaltWindow = 3 // service-window seeds
	driftSaltOracle = 4 // oracle round + window seeds
	driftSaltGA     = 5 // warm-started GA pipeline seeds
)

type driftRun struct {
	cfg    DriftConfig
	replay Replayer
	drift  *cluster.Drift

	mask  []bool // picker's active-parameter mask
	round int    // global evaluation-round counter (all modes)
	memo  *Memo  // GA-mode memo, keyed by re-tune epoch (stale regimes never hit)

	// Trace constants for the pruning bound, captured from the first
	// completed replay (always serial — the incumbent's evaluation
	// precedes every concurrent candidate batch).
	bytesRead    float64
	bytesWritten float64
	alpha        float64
	haveTotals   bool

	res DriftResult
}

// candScore is one candidate evaluation outcome.
type candScore struct {
	time   float64 // summed replayed runtime across reps (partial when pruned)
	perf   float64 // mean bandwidth (0 when pruned)
	pruned bool
	err    error
}

// RunDrift runs the online controller and returns its window series,
// re-tune log, and final incumbent.
func RunDrift(ctx context.Context, cfg DriftConfig) (*DriftResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfg.Space) == 0 {
		return nil, fmt.Errorf("tuner: drift: empty parameter space")
	}
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("tuner: drift: nil cluster")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Trace == nil {
		return nil, fmt.Errorf("tuner: drift: nil trace (record the kernel first)")
	}
	if cfg.Threshold < 0 || cfg.WindowGap < 0 {
		return nil, fmt.Errorf("tuner: drift: Threshold and WindowGap must be >= 0")
	}
	if cfg.Prune && cfg.Reps > 1 {
		return nil, fmt.Errorf("tuner: drift: Prune requires Reps == 1 (no sound mid-replay bound on an averaged objective)")
	}
	cfg.fillDefaults()

	view := cfg.Cache
	if view == nil {
		view = replay.NewSharedStageCache().Register(replay.TraceKey(cfg.Trace), cfg.Trace)
	}
	d := &driftRun{
		cfg:    cfg,
		replay: Replayer{View: view, Stacks: workload.NewStackPool(cfg.Cluster)},
		drift:  cfg.Cluster.Drift,
	}
	if cfg.Picker != nil {
		cfg.Picker.Reset()
		d.mask = make([]bool, len(cfg.Space))
		for i := range d.mask {
			d.mask[i] = true
		}
	}

	// Oracle controllers re-tune at every regime boundary with zero
	// detection delay; their configs are computed up front (the schedule
	// is known) so the main loop can score the regret baseline per
	// window. Their evaluation cost is accounted separately.
	var oracleStarts []float64
	var oracleConfigs []*params.Assignment
	if cfg.Oracle {
		var err error
		oracleStarts, oracleConfigs, err = d.oracleConfigs(ctx)
		if err != nil {
			return nil, err
		}
	}

	// Initial tune at epoch 0 from the library defaults.
	inc, initEv, err := d.tune(ctx, params.DefaultAssignment(cfg.Space), 0, cfg.InitRounds, 0)
	if err != nil {
		return nil, err
	}
	d.res.Evaluations += initEv.Evaluations
	d.res.PrunedEvals += initEv.Pruned
	d.res.EvalSimSeconds += initEv.EvalSimSeconds

	var (
		wall     float64 // service wall clock (epoch of the next window)
		mu       float64 // EWMA expected bandwidth; 0 = unset (first window after a tune)
		streak   int     // consecutive deviant windows
		devUp    bool    // direction of the current streak (perf below expectation)
		retuned  = true  // first window follows the initial tune
		perfSum  float64
		oraSum   float64
		lastPerf float64
	)
	for w := 0; w < cfg.Windows; w++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tuner: drift canceled at window %d: %w", w, err)
		}
		var rtm replay.Runtime
		sc := d.evalOne(&rtm, inc, wall, SeedFor(cfg.Seed+driftSaltWindow, w, inc), 0)
		if sc.err != nil {
			return nil, sc.err
		}
		perf := sc.perf
		lastPerf = perf

		expected := mu
		if expected == 0 {
			expected = perf // first window under a fresh incumbent defines the profile
		}
		dev := 0.0
		if expected > 0 {
			dev = (expected - perf) / expected
		}

		pt := WindowPoint{
			Window:    w,
			Start:     wall,
			Runtime:   sc.time,
			PerfMBs:   perf,
			Expected:  expected,
			Deviation: dev,
			Regime:    d.regimeAt(wall),
			Retuned:   retuned,
		}
		retuned = false
		if cfg.Oracle {
			oc := oracleConfigs[configAt(oracleStarts, wall)]
			osc := d.evalOne(&rtm, oc, wall, SeedFor(cfg.Seed+driftSaltOracle, w, oc), 0)
			if osc.err != nil {
				return nil, osc.err
			}
			pt.OraclePerfMBs = osc.perf
			oraSum += osc.perf
		}
		d.res.Windows = append(d.res.Windows, pt)
		perfSum += perf
		if cfg.Progress != nil {
			cfg.Progress(pt)
		}

		wall += sc.time + cfg.WindowGap

		// Drift detection: sustained deviation in either direction
		// (degradation, or head-room appearing when load lifts).
		if math.Abs(dev) > cfg.Threshold && mu != 0 {
			if streak > 0 && devUp != (dev > 0) {
				streak = 0 // direction flipped; restart the streak
			}
			devUp = dev > 0
			streak++
		} else {
			streak = 0
			// Track benign drift so slow change doesn't accumulate into
			// a false trigger.
			if mu == 0 {
				mu = perf
			} else {
				mu = 0.8*mu + 0.2*perf
			}
		}
		if streak >= cfg.Patience && w+1 < cfg.Windows {
			dir := "below"
			if !devUp {
				dir = "above"
			}
			reason := fmt.Sprintf("bandwidth %s expected profile for %d windows: %.0f MB/s vs %.0f MB/s expected (%.0f%% deviation)",
				dir, streak, perf, expected, 100*math.Abs(dev))
			ev := RetuneEvent{
				Window:        w,
				TimeS:         wall,
				Reason:        reason,
				DetectWindows: streak,
			}
			inc, ev, err = d.retune(ctx, inc, wall, ev, lastPerf)
			if err != nil {
				return nil, err
			}
			d.res.Retunes = append(d.res.Retunes, ev)
			d.res.Evaluations += ev.Evaluations
			d.res.PrunedEvals += ev.Pruned
			d.res.EvalSimSeconds += ev.EvalSimSeconds
			if cfg.OnRetune != nil {
				cfg.OnRetune(ev)
			}
			mu, streak, retuned = 0, 0, true
		}
	}

	d.res.Final = inc
	d.res.FinalGenome = inc.Genome()
	d.res.FinalChanged = inc.ChangedFromDefault()
	if n := len(d.res.Windows); n > 0 {
		d.res.MeanPerf = perfSum / float64(n)
		if cfg.Oracle {
			d.res.OracleMeanPerf = oraSum / float64(n)
		}
	}
	out := d.res
	return &out, nil
}

// regimeAt maps an epoch to its drift regime index (-1 with no
// schedule or before it starts).
func (d *driftRun) regimeAt(t float64) int {
	if d.drift == nil {
		return -1
	}
	return d.drift.RegimeIndex(t)
}

// configAt returns the index of the last start <= t (0 when none —
// starts[0] is always 0).
func configAt(starts []float64, t float64) int {
	best := 0
	for i, s := range starts {
		if s <= t {
			best = i
		}
	}
	return best
}

// tuneStats costs out one tune (initial or re-tune).
type tuneStats struct {
	Evaluations    int
	Pruned         int
	EvalSimSeconds float64
}

// retune runs one incremental re-tune at epoch t and fills the event.
func (d *driftRun) retune(ctx context.Context, inc *params.Assignment, t float64, ev RetuneEvent, lastPerf float64) (*params.Assignment, RetuneEvent, error) {
	if d.cfg.GA != nil {
		next, st, err := d.gaRetune(ctx, inc, t)
		if err != nil {
			return nil, ev, err
		}
		ev.Mode = "ga"
		ev.Evaluations = st.Evaluations
		ev.EvalSimSeconds = st.EvalSimSeconds
		ev.Changed = next.ChangedFromDefault()
		return next, ev, nil
	}
	next, st, err := d.tune(ctx, inc, t, d.cfg.Rounds, lastPerf)
	if err != nil {
		return nil, ev, err
	}
	ev.Mode = "local"
	ev.Evaluations = st.Evaluations
	ev.Pruned = st.Pruned
	ev.EvalSimSeconds = st.EvalSimSeconds
	ev.Changed = next.ChangedFromDefault()
	return next, ev, nil
}

// tune is the (1+λ) local search: Rounds rounds of Neighbors candidates
// around the incumbent, evaluated at epoch t by app-layer bandwidth
// (maximize; the repo-wide objective). The incumbent is measured once —
// when a candidate wins a round its full measurement carries over as
// the next round's incumbent score, so no configuration is ever
// replayed twice within one tune. With Prune, a candidate's replay
// aborts once its bandwidth upper bound falls below the pruning floor.
// lastPerf feeds the subset picker (0 during the initial tune, before
// any window has been measured).
func (d *driftRun) tune(ctx context.Context, inc *params.Assignment, t float64, rounds int, lastPerf float64) (*params.Assignment, tuneStats, error) {
	if d.cfg.GA != nil {
		// GA mode covers the initial tune too, so the whole run shares
		// one search machinery.
		return d.gaRetune(ctx, inc, t)
	}
	var st tuneStats
	var incSc candScore
	incValid := false
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, st, fmt.Errorf("tuner: drift re-tune canceled: %w", err)
		}
		round := d.round
		d.round++

		mask := d.mask
		if d.cfg.Picker != nil {
			mask = d.cfg.Picker.NextSubset(lastPerf, d.mask)
			if len(mask) == len(d.cfg.Space) {
				d.mask = mask
			} else {
				mask = d.mask
			}
		}

		// The incumbent's own bandwidth at this epoch is both the
		// opening pruning floor and the bar candidates must beat. Rounds
		// after the first inherit the score already measured (the prior
		// round's incumbent or winning candidate).
		if !incValid {
			var rtm replay.Runtime
			incSc = d.evalOne(&rtm, inc, t, SeedFor(d.cfg.Seed+driftSaltCand, round, inc), 0)
			if incSc.err != nil {
				return nil, st, incSc.err
			}
			st.Evaluations++
			st.EvalSimSeconds += incSc.time
			incValid = true
		}

		cands := d.neighbors(inc, round, mask)
		floor := 0.0
		if d.cfg.Prune {
			floor = incSc.perf
		}
		scores, err := d.evalBatch(ctx, cands, t, round, floor)
		if err != nil {
			return nil, st, err
		}
		for i, sc := range scores {
			st.Evaluations++
			st.EvalSimSeconds += sc.time
			if sc.pruned {
				st.Pruned++
				continue
			}
			// Strictly better only: a pruned candidate provably cannot
			// exceed the floor, so prune on/off picks the same incumbent.
			if sc.perf > incSc.perf {
				inc, incSc = cands[i], sc
			}
		}
	}
	return inc, st, nil
}

// neighbors generates the round's candidate set: a pure function of
// (incumbent genome, seed, round, mask) — never of measured fitness —
// so pruning cannot alter the candidate stream. The first candidate of
// every round is a uniform resample of the mutable dimensions, a global
// restart probe that lets the (1+λ) search escape local optima the
// 1-2 dimension mutations cannot. It runs first so that when it lands
// well its completed measurement raises the pruning floor before any
// local mutation replays — which is what lets pruning bite even while
// the incumbent sits in a flat low-bandwidth region (every neighbor of
// a weak incumbent scores ≈ the floor and would otherwise replay in
// full). Mutations always move a dimension to a *different* value, so
// no candidate wastes a replay re-measuring the incumbent's genome.
func (d *driftRun) neighbors(inc *params.Assignment, round int, mask []bool) []*params.Assignment {
	rng := rand.New(rand.NewSource(SeedFor(d.cfg.Seed+driftSaltMutate, round, inc)))
	dims := make([]int, 0, len(d.cfg.Space))
	for i := range d.cfg.Space {
		if (mask == nil || mask[i]) && len(d.cfg.Space[i].Values) > 1 {
			dims = append(dims, i)
		}
	}
	if len(dims) == 0 {
		for i := range d.cfg.Space {
			if len(d.cfg.Space[i].Values) > 1 {
				dims = append(dims, i)
			}
		}
	}
	base := inc.Genome()
	out := make([]*params.Assignment, 0, d.cfg.Neighbors)
	for len(out) < d.cfg.Neighbors && len(dims) > 0 {
		g := append([]int(nil), base...)
		if len(out) == 0 {
			for _, dim := range dims {
				g[dim] = rng.Intn(len(d.cfg.Space[dim].Values))
			}
		} else {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				dim := dims[rng.Intn(len(dims))]
				nv := rng.Intn(len(d.cfg.Space[dim].Values) - 1)
				if nv >= g[dim] {
					nv++
				}
				g[dim] = nv
			}
		}
		a, err := params.FromGenome(d.cfg.Space, g)
		if err != nil {
			continue // unreachable: indices are drawn in range
		}
		out = append(out, a)
	}
	return out
}

// driftPruneBlock is the pruned-batch block size: the pruning floor is
// raised to the best completed bandwidth after every block. A fixed
// constant (never Parallelism) so block boundaries — and therefore
// which candidates get pruned, and all cost accounting — are identical
// for any worker count.
const driftPruneBlock = 2

// evalBatch scores candidates concurrently and commits results by
// index; the smallest-index error wins, as in Pool.EvaluateBatch. A
// positive floor prunes: candidates run in fixed-size blocks, and after
// each block the floor rises to the best bandwidth completed so far —
// the incumbent's is just the opening bid, so pruning bites even in
// early rounds when the incumbent is still weak. Raising the floor is
// sound for selection: a candidate pruned below it is provably worse
// than either the incumbent or an earlier completed candidate, so it
// can never be the round's argmax.
func (d *driftRun) evalBatch(ctx context.Context, cands []*params.Assignment, t float64, round int, floor float64) ([]candScore, error) {
	out := make([]candScore, len(cands))
	seeds := make([]int64, len(cands))
	for i, a := range cands {
		seeds[i] = SeedFor(d.cfg.Seed+driftSaltCand, round, a)
	}
	block := len(cands)
	if floor > 0 {
		block = driftPruneBlock
	}
	for lo := 0; lo < len(cands); lo += block {
		hi := lo + block
		if hi > len(cands) {
			hi = len(cands)
		}
		if err := d.evalSlice(ctx, cands[lo:hi], out[lo:hi], seeds[lo:hi], t, floor); err != nil {
			return nil, err
		}
		for _, sc := range out[lo:hi] {
			if sc.err != nil {
				return nil, sc.err
			}
			if !sc.pruned && sc.perf > floor && floor > 0 {
				floor = sc.perf
			}
		}
	}
	return out, nil
}

// evalSlice runs one block of candidates under a fixed floor, filling
// out by index.
func (d *driftRun) evalSlice(ctx context.Context, cands []*params.Assignment, out []candScore, seeds []int64, t, floor float64) error {
	err := FanOut(ctx, len(cands), d.cfg.Parallelism, nil, func() func(int) error {
		var rtm replay.Runtime
		return func(i int) error {
			out[i] = d.evalOne(&rtm, cands[i], t, seeds[i], floor)
			return nil // a candidate's own failure travels in its score
		}
	})
	if err != nil {
		return fmt.Errorf("tuner: drift evaluation canceled: %w", err)
	}
	return nil
}

// evalOne replays the candidate at epoch t, averaging bandwidth across
// reps. A positive floor prunes: the replay aborts as soon as the
// candidate's bandwidth upper bound falls below it (floor > 0 implies
// Reps == 1, enforced at config validation).
func (d *driftRun) evalOne(rtm *replay.Runtime, a *params.Assignment, t float64, seed int64, floor float64) candScore {
	var keep func(*workload.Stack) bool
	if floor > 0 && d.haveTotals {
		keep = func(st *workload.Stack) bool { return d.perfBound(st.Sim.Report) >= floor }
	}
	var total, perfSum float64
	pruned, err := d.replay.Reps(rtm, a, seed, d.cfg.Reps, t, keep, func(st *workload.Stack, aborted bool) {
		total += st.Sim.Now()
		if aborted {
			return
		}
		p, _ := workload.Perf(st.Sim.Report)
		perfSum += p
		if !d.haveTotals {
			// First completed replay ever (always serial): capture the
			// trace constants the pruning bound needs.
			app := st.Sim.Report.App()
			d.bytesRead = float64(app.BytesRead)
			d.bytesWritten = float64(app.BytesWritten)
			d.alpha = st.Sim.Report.WriteRatio()
			d.haveTotals = true
		}
	})
	switch {
	case err != nil:
		return candScore{err: err}
	case pruned:
		return candScore{time: total, pruned: true}
	}
	return candScore{time: total, perf: perfSum / float64(d.cfg.Reps)}
}

// perfBound is the pruning bound: the objective (workload.Perf)
// computed with the trace's full byte totals over the replay's partial
// app-layer times. Bytes are constants of the trace and layer times
// only accumulate, so the bound falls monotonically as the replay
// progresses and equals the final objective on completion — once it is
// below the incumbent's bandwidth it stays there. A term whose time has
// not started yet is unbounded.
func (d *driftRun) perfBound(r *darshan.Report) float64 {
	app := r.App()
	var bw float64
	if d.alpha < 1 {
		if app.ReadTime <= 0 {
			return math.Inf(1)
		}
		bw += (1 - d.alpha) * d.bytesRead / app.ReadTime
	}
	if d.alpha > 0 {
		if app.WriteTime <= 0 {
			return math.Inf(1)
		}
		bw += d.alpha * d.bytesWritten / app.WriteTime
	}
	return bw / 1e6
}

// gaRetune re-tunes with the genetic pipeline warm-started from the
// incumbent, maximizing bandwidth at the epoch. One memo persists across
// the run's re-tunes, keyed by the re-tune epoch (Memo.SetEpoch): a
// genome the GA revisits within one re-tune is served from cache, while
// a re-tune at a later epoch — a different cluster regime — can never
// reuse the stale regime's scores, because the epoch is part of every
// cache key.
func (d *driftRun) gaRetune(ctx context.Context, inc *params.Assignment, t float64) (*params.Assignment, tuneStats, error) {
	round := d.round
	d.round++
	ev := &epochEvaluator{d: d, epoch: t, base: SeedFor(d.cfg.Seed+driftSaltGA, round, inc)}
	if d.memo == nil {
		d.memo = NewMemo(nil)
	}
	d.memo.Inner = &Pool{Eval: ev.evaluate, Workers: d.cfg.Parallelism}
	d.memo.SetEpoch(t)
	cfg := Config{
		Space:         d.cfg.Space,
		PopSize:       d.cfg.GA.PopSize,
		MaxIterations: d.cfg.GA.Iterations,
		Seed:          ev.base,
		StartFrom:     inc,
		Picker:        d.cfg.Picker,
	}
	res, err := RunBatch(ctx, cfg, d.memo)
	if err != nil {
		return nil, tuneStats{}, err
	}
	return res.Best, tuneStats{Evaluations: ev.evals, EvalSimSeconds: ev.simSeconds}, nil
}

// epochEvaluator is the GA re-tunes' EvalFunc over the drift run's replay
// path, pinning every evaluation to one epoch.
type epochEvaluator struct {
	d     *driftRun
	epoch float64
	base  int64

	mu         sync.Mutex
	evals      int
	simSeconds float64
}

func (e *epochEvaluator) evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	var rtm replay.Runtime
	sc := e.d.evalOne(&rtm, a, e.epoch, SeedFor(e.base, iteration, a), 0)
	if sc.err != nil {
		return 0, 0, sc.err
	}
	e.mu.Lock()
	e.evals++
	e.simSeconds += sc.time
	e.mu.Unlock()
	return sc.perf, sc.time / 60, nil
}

// oracleConfigs tunes an oracle incumbent for every regime boundary
// (epoch 0 plus each regime start), warm-starting each from the
// previous. Oracle cost is recorded on the result but kept out of the
// controller's own evaluation totals.
func (d *driftRun) oracleConfigs(ctx context.Context) ([]float64, []*params.Assignment, error) {
	starts := []float64{0}
	if d.drift != nil {
		for _, r := range d.drift.Regimes {
			if r.Start > 0 {
				starts = append(starts, r.Start)
			}
		}
	}
	// Oracle tuning must not consume the main controller's round
	// counter stream unpredictably — but rounds are allocated before the
	// main tune deterministically, so sharing the counter keeps seeds
	// unique while staying reproducible.
	configs := make([]*params.Assignment, len(starts))
	inc := params.DefaultAssignment(d.cfg.Space)
	for i, t0 := range starts {
		next, st, err := d.tune(ctx, inc, t0, d.cfg.InitRounds, 0)
		if err != nil {
			return nil, nil, err
		}
		d.res.OracleEvalSeconds += st.EvalSimSeconds
		inc = next
		configs[i] = next
	}
	return starts, configs, nil
}
