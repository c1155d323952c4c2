package tunio

import (
	"fmt"

	"tunio/internal/analysis"
	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// JobSpec describes one tuning session: what to tune (a named workload or
// C source), on what simulated allocation, with which pipeline and
// budget. It is TuneOptions plus the multi-tenant fields (Tenant, Source,
// Fix) the service surface needs.
type JobSpec struct {
	// Workload names a built-in application model ("vpic", "hacc",
	// "flash", "bdcats", "macsio", "ior"). Exactly one of Workload and
	// Source must be set.
	Workload string
	// Source is C source code to tune: it is parsed (and, with Discover,
	// reduced to its I/O kernel first) and evaluated SPMD on the
	// simulated stack.
	Source string
	// Discover runs Application I/O Discovery on Source before tuning,
	// so the reduced kernel is what gets recorded and replayed. A kernel
	// with an error-severity diagnostic (TR006, TR007) is refused at
	// submit. If the kernel does not record, the full Source is recorded
	// instead (§III-B); the result's EngineInfo.FellBack says so.
	Discover bool
	// Tenant attributes the session for quota accounting ("" is a valid
	// tenant).
	Tenant string

	// Nodes/ProcsPerNode size the simulated allocation (default 4x32).
	Nodes        int
	ProcsPerNode int
	// Agent attaches TunIO's RL components; nil runs the plain HSTuner
	// pipeline. Agents are stateful: give each session its own copy.
	Agent *TunIO
	// Heuristic attaches the 5%/5-iteration heuristic stopper instead
	// (mutually exclusive with Agent).
	Heuristic bool
	// PopSize and MaxIterations bound the genetic pipeline (default 16/50).
	PopSize       int
	MaxIterations int
	// Reps is the number of runs averaged per evaluation (default 3).
	Reps int
	// Seed drives the whole session.
	Seed int64
	// Parallelism is the session's worker count (0 = GOMAXPROCS). Curves
	// are identical for every count. The engine's shared gate additionally
	// bounds the sum across sessions.
	Parallelism int
	// Fix pins named parameters to fixed raw values, restricting the
	// tuned space: the value must appear in the parameter's value list.
	Fix map[string]int64
	// Progress, when non-nil, receives each curve point synchronously on
	// the session goroutine (the Run's Events stream is fed either way).
	Progress func(metrics.Point)

	// Drift attaches a time-varying machine schedule to the simulated
	// cluster. One-shot sessions then tune against the machine as it
	// stands at epoch 0; online sessions (Online != nil) follow the
	// schedule across service windows.
	Drift *Drift
	// Online switches the session to the drift-aware online controller:
	// instead of one tuning run, the session alternates service windows
	// with drift detection and incremental re-tuning. Progress arrives as
	// WindowPoints and RetuneEvents on Run.OnlineEvents (curve points are
	// synthesized from windows so existing clients still see progress);
	// the full DriftResult is available from Run.Drift after Wait.
	Online *OnlineSpec
}

// OnlineSpec configures an online (drift-aware) session. Zero values
// take the controller defaults (tuner.DriftConfig). The JSON form is the
// service's wire format (server.JobRequest.Online).
type OnlineSpec struct {
	// Windows is the number of service windows to run; WindowGap idle
	// seconds between them.
	Windows   int     `json:"windows,omitempty"`
	WindowGap float64 `json:"window_gap_s,omitempty"`
	// Threshold/Patience gate drift detection: relative bandwidth
	// deviation and consecutive deviant windows before re-tuning.
	Threshold float64 `json:"threshold,omitempty"`
	Patience  int     `json:"patience,omitempty"`
	// Neighbors/Rounds/InitRounds size the local-search re-tunes.
	Neighbors  int `json:"neighbors,omitempty"`
	Rounds     int `json:"rounds,omitempty"`
	InitRounds int `json:"init_rounds,omitempty"`
	// Prune aborts a candidate's replay once an upper bound on its
	// bandwidth — the trace's full byte totals over the replay's partial
	// read and write times, which only falls as the replay proceeds — is
	// below the incumbent's (SHAMan-style; results are bit-identical
	// with it on or off). Requires Reps <= 1.
	Prune bool `json:"prune,omitempty"`
	// GA re-tunes with the genetic pipeline warm-started from the
	// incumbent (sized by the spec's PopSize/MaxIterations) instead of
	// local search.
	GA bool `json:"ga,omitempty"`
	// Oracle additionally tracks the zero-delay oracle controller as the
	// regret baseline.
	Oracle bool `json:"oracle,omitempty"`
}

// OnlineEvent is one online-session progress event: exactly one field
// is set.
type OnlineEvent struct {
	Window *WindowPoint `json:"window,omitempty"`
	Retune *RetuneEvent `json:"retune,omitempty"`
}

// applySpaceOverrides returns the space with every Fix'd parameter pinned
// to a single-value list.
func applySpaceOverrides(space []params.Parameter, fix map[string]int64) ([]params.Parameter, error) {
	if len(fix) == 0 {
		return space, nil
	}
	seen := 0
	out := make([]params.Parameter, len(space))
	copy(out, space)
	for i, p := range out {
		v, ok := fix[p.Name]
		if !ok {
			continue
		}
		seen++
		found := false
		for _, have := range p.Values {
			if have == v {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("tunio: fix %s=%d: value not in the parameter's list %v", p.Name, v, p.Values)
		}
		out[i] = params.Parameter{Name: p.Name, Layer: p.Layer, Values: []int64{v}, Default: 0}
	}
	if seen != len(fix) {
		for name := range fix {
			if params.Index(space, name) < 0 {
				return nil, fmt.Errorf("tunio: fix: unknown parameter %q", name)
			}
		}
	}
	return out, nil
}

// sessionKernel is a job's kernel selection: what to record, on the job's
// process count.
type sessionKernel struct {
	src tuner.KernelSource
	// full is the submitted source when src.Prog is only its discovered I/O
	// kernel: what §III-B recovery records if src.Prog cannot be traced.
	full string
}

// selectKernel validates the spec's kernel selection and parses it.
func selectKernel(spec JobSpec, c *cluster.Cluster) (sessionKernel, error) {
	kern := sessionKernel{src: tuner.KernelSource{Nprocs: c.Procs()}}
	switch {
	case spec.Workload != "" && spec.Source != "":
		return sessionKernel{}, fmt.Errorf("tunio: Workload and Source are mutually exclusive")
	case spec.Workload != "":
		w, err := workload.ByName(spec.Workload, c.Procs())
		if err != nil {
			return sessionKernel{}, err
		}
		kern.src.Workload = w
		return kern, nil
	case spec.Source != "":
		src := spec.Source
		if spec.Discover {
			k, err := core.DiscoverIO(src, discovery.Options{})
			if err != nil {
				return sessionKernel{}, fmt.Errorf("tunio: discovery: %w", err)
			}
			// What the bound analysis proves about the kernel (an I/O loop
			// that never ends, an index out of range) would otherwise cost
			// the recording run its whole step budget to find out.
			for _, d := range k.Warnings {
				if d.Severity >= analysis.SevError {
					return sessionKernel{}, fmt.Errorf("tunio: discovery: kernel refused: %s", d)
				}
			}
			src, kern.full = k.Source, spec.Source
		}
		prog, err := csrc.Parse(src)
		if err != nil {
			return sessionKernel{}, fmt.Errorf("tunio: parsing source: %w", err)
		}
		kern.src.Prog = prog
		return kern, nil
	}
	return sessionKernel{}, fmt.Errorf("tunio: job needs a Workload name or C Source")
}

// prepare is submit-time validation: everything about a spec that can be
// refused before a session exists. It returns the simulated cluster, the
// parsed kernel selection and the (possibly pinned) parameter space.
func (spec JobSpec) prepare() (c *cluster.Cluster, kern sessionKernel, space []params.Parameter, err error) {
	if spec.Agent != nil && spec.Heuristic {
		return nil, kern, nil, fmt.Errorf("tunio: Agent and Heuristic are mutually exclusive")
	}
	if o := spec.Online; o != nil {
		// What tuner.RunDrift would refuse once the kernel is recorded.
		if o.Threshold < 0 || o.WindowGap < 0 {
			return nil, kern, nil, fmt.Errorf("tunio: online: Threshold and WindowGap must be >= 0")
		}
		if o.Prune && spec.Reps > 1 {
			return nil, kern, nil, fmt.Errorf("tunio: online: Prune requires Reps == 1 (no sound mid-replay bound on an averaged objective)")
		}
	}
	nodes, ppn := spec.Nodes, spec.ProcsPerNode
	if nodes == 0 {
		nodes = 4
	}
	if ppn == 0 {
		ppn = 32
	}
	c = cluster.CoriHaswell(nodes, ppn)
	if spec.Drift != nil {
		c.Drift = spec.Drift
		if err := c.Validate(); err != nil {
			return nil, kern, nil, err
		}
	}
	if kern, err = selectKernel(spec, c); err != nil {
		return nil, kern, nil, err
	}
	if space, err = applySpaceOverrides(params.Space(), spec.Fix); err != nil {
		return nil, kern, nil, err
	}
	return c, kern, space, nil
}
