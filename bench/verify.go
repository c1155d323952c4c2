package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"tunio"
	"tunio/internal/params"
	"tunio/internal/server"
	"tunio/internal/train"
)

// outcome is what a tuning job decided, in the form all three ways of
// running it (served, library, traced pipeline) can produce: the curve,
// the chosen configuration and where the pipeline stopped.
type outcome struct {
	Curve      []server.PointJSON
	BestConfig map[string]int64
	StoppedAt  int
}

func servedOutcome(r *server.JobResult) outcome {
	return outcome{Curve: r.Curve, BestConfig: r.BestConfig, StoppedAt: r.StoppedAt}
}

func libraryOutcome(res *tunio.Result) outcome {
	return outcome{Curve: curveJSON(res.Curve), BestConfig: configMap(res.Best), StoppedAt: res.StoppedAt}
}

// curveJSON and configMap put a library result in the daemon's wire form.
func curveJSON(c tunio.Curve) []server.PointJSON {
	out := make([]server.PointJSON, len(c))
	for i, p := range c {
		out[i] = server.PointJSON{Iteration: p.Iteration, TimeMinutes: p.TimeMinutes, IterPerf: p.IterPerf, BestPerf: p.BestPerf}
	}
	return out
}

func configMap(a *params.Assignment) map[string]int64 {
	out := map[string]int64{}
	for _, p := range a.Space() {
		out[p.Name] = a.Value(p.Name)
	}
	return out
}

// digest hashes the outcome bit for bit: every float enters as its IEEE
// bits, so two digests agree only when the curves are identical, not
// merely close.
func (o outcome) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range o.Curve {
		put(uint64(p.Iteration))
		put(math.Float64bits(p.TimeMinutes))
		put(math.Float64bits(p.IterPerf))
		put(math.Float64bits(p.BestPerf))
	}
	names := make([]string, 0, len(o.BestConfig))
	for n := range o.BestConfig {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		put(uint64(o.BestConfig[n]))
	}
	put(uint64(o.StoppedAt))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checkServed applies the per-job contract to a final status: the job is
// done, its curve is finite and best-so-far never falls, it stayed within
// its budget, and it was scored by staged replay without falling back.
func checkServed(in jobInput, st *server.JobStatus) error {
	if st.State != "done" {
		return fmt.Errorf("state %q: %s", st.State, st.Error)
	}
	r := st.Result
	if r == nil || len(r.Curve) == 0 {
		return fmt.Errorf("done without a curve")
	}
	budget := in.Req.MaxIterations + 1
	if o := in.Req.Online; o != nil {
		budget = o.Windows
		if r.Drift == nil {
			return fmt.Errorf("online job without a drift result")
		}
	} else if !r.Engine.TraceReady || r.Engine.FellBack {
		return fmt.Errorf("not scored by staged replay (trace_ready=%v fell_back=%v %s)",
			r.Engine.TraceReady, r.Engine.FellBack, r.Engine.PrepareErr)
	}
	if len(r.Curve) > budget {
		return fmt.Errorf("curve has %d points, budget allows %d", len(r.Curve), budget)
	}
	for i, p := range r.Curve {
		for _, v := range [3]float64{p.TimeMinutes, p.IterPerf, p.BestPerf} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("curve point %d is not finite", i)
			}
		}
		if i > 0 && p.BestPerf < r.Curve[i-1].BestPerf {
			return fmt.Errorf("best-so-far falls at curve point %d", i)
		}
	}
	return nil
}

// trainConfig is the training run the daemon's lazy path performs for the
// scale, in the training package's own terms.
func trainConfig(sc scale) train.Config {
	tc := tunio.TrainConfig{Seed: 1}
	if sc.train != nil {
		tc = *sc.train
	}
	return train.Config{
		Space:           tc.Space,
		Cluster:         tc.Cluster,
		Kernels:         tc.Kernels,
		ExtraRandomRuns: tc.ExtraRandomRuns,
		StopperEpochs:   tc.StopperEpochs,
		PickerEpochs:    tc.PickerEpochs,
		StopperHorizon:  tc.StopperHorizon,
		Seed:            tc.Seed,
	}
}

// library runs jobs through the tunio package directly — no HTTP, no
// server — on an engine of its own. It is both the reference every served
// curve must equal and the untraced baseline of the traced pass.
type library struct {
	engine *tunio.Engine
	// agent is the trained agent as JSON; each "tunio" job gets a private
	// copy, as the daemon gives its jobs.
	agent []byte
}

// newLibrary returns a library runner over a private engine nothing else
// has touched. needAgent trains the same agent the daemon trains lazily.
func newLibrary(sc scale, needAgent bool) (*library, error) {
	l := &library{engine: tunio.NewEngine(tunio.EngineOptions{Workers: engineWorkers})}
	if needAgent {
		a, err := train.Train(trainConfig(sc))
		if err != nil {
			return nil, fmt.Errorf("training the reference agent: %w", err)
		}
		if l.agent, err = json.Marshal(a); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *library) agentCopy(req server.JobRequest) (*tunio.TunIO, error) {
	if req.Pipeline != "tunio" {
		return nil, nil
	}
	a := &tunio.TunIO{}
	if err := json.Unmarshal(l.agent, a); err != nil {
		return nil, err
	}
	return a, nil
}

// run tunes the job and returns its outcome and how long the call took.
func (l *library) run(in jobInput) (outcome, time.Duration, error) {
	agent, err := l.agentCopy(in.Req)
	if err != nil {
		return outcome{}, 0, err
	}
	spec := jobSpec(in.Req, agent)
	if spec.Parallelism == 0 {
		spec.Parallelism = 1
	}
	start := time.Now()
	run, err := l.engine.Tune(context.Background(), spec)
	if err != nil {
		return outcome{}, 0, err
	}
	res, err := run.Wait()
	took := time.Since(start)
	if err != nil {
		return outcome{}, took, err
	}
	return libraryOutcome(res), took, nil
}

// needsAgent reports whether any of the jobs runs the RL pipeline.
func needsAgent(jobs []jobInput) bool {
	for _, in := range jobs {
		if in.Req.Pipeline == "tunio" {
			return true
		}
	}
	return false
}
