// Package server implements tuning-as-a-service: an HTTP/JSON front end
// over a shared tunio.Engine. Clients submit tuning jobs (a built-in
// workload name or C source, plus pipeline and budget), poll or stream
// progress, cancel, and read engine-wide cache statistics:
//
//	POST   /v1/jobs             submit a job            -> 202 + job status
//	GET    /v1/jobs             list jobs               -> 200 + status array
//	GET    /v1/jobs/{id}        job status (+result)    -> 200
//	GET    /v1/jobs/{id}/events SSE progress stream     -> text/event-stream
//	POST   /v1/jobs/{id}/cancel cancel a running job    -> 202
//	GET    /v1/stats            engine + cache stats    -> 200
//
// Tenancy is declared per request via the X-Tunio-Tenant header; the
// engine enforces the per-tenant concurrent-session quota, which the
// server maps to 429 Too Many Requests. All sessions share the engine's
// worker gate, kernel store, and stage cache — the whole point of serving
// from one process — while results stay bit-identical to solo runs.
//
// The package holds no package-level state (cmd/statecheck enforces
// this): every piece of shared state lives in the Server or the injected
// Engine, so tests can run many servers side by side.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tunio"
	"tunio/internal/metrics"
)

// Options configure a Server.
type Options struct {
	// Engine runs the sessions; required.
	Engine *tunio.Engine
	// Agent, when non-nil, serves pipeline "tunio" jobs: each job gets a
	// private copy (agents are stateful). Typically loaded from a
	// tuniotrain artifacts directory via tunio.LoadAgentArtifacts. When
	// nil, the first such job triggers one offline training pass, cached
	// for the server's lifetime.
	Agent *tunio.TunIO
	// Train configures lazy agent training when Agent is nil. Nil trains
	// at the default scale with seed 1.
	Train *tunio.TrainConfig
}

const (
	// maxBodyBytes caps request bodies.
	maxBodyBytes = 8 << 20
	// defaultParallelism is the worker count of jobs that do not set
	// parallelism: a daemon's concurrency comes from running many jobs,
	// not from fanning one out.
	defaultParallelism = 1
)

// Server is the HTTP handler. Create with New.
//
// The job-table lock is a read/write mutex held only around map access
// and the stats census's state reads — never across a status snapshot, an
// SSE encode, or a network write — so an arbitrarily slow streaming client
// cannot stall submissions, listings, or other streams. SSE frames are
// assembled in pooled buffers and written with a single Write.
type Server struct {
	engine *tunio.Engine
	opts   Options
	mux    *http.ServeMux

	mu     sync.RWMutex
	jobs   map[string]*job
	nextID int

	// ssePool recycles frame-assembly buffers across SSE events; lives on
	// the Server (not at package level) so side-by-side test servers stay
	// independent and cmd/statecheck stays happy.
	ssePool sync.Pool

	agentOnce sync.Once
	agent0    *tunio.TunIO // the served agent as first used; jobs get copies
	agentErr  error
}

// job is one submitted tuning session.
type job struct {
	id      string
	tenant  string
	kernel  string // workload name or "source"
	online  bool   // drift-aware online session
	run     *tunio.Run
	created time.Time
}

// New returns a Server over the engine.
func New(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, fmt.Errorf("server: Options.Engine is required")
	}
	s := &Server{
		engine: opts.Engine,
		opts:   opts,
		jobs:   map[string]*job{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// JobRequest is the submit payload.
type JobRequest struct {
	// Workload names a built-in application model; Source submits C
	// source instead (exactly one of the two).
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Discover reduces Source to its I/O kernel before tuning.
	Discover bool `json:"discover,omitempty"`
	// Pipeline selects the stopper/picker wiring: "hstuner" (default,
	// plain GA), "heuristic" (5%/5-iteration stopper), or "tunio" (the
	// RL agents).
	Pipeline string `json:"pipeline,omitempty"`

	Nodes         int              `json:"nodes,omitempty"`
	ProcsPerNode  int              `json:"procs_per_node,omitempty"`
	PopSize       int              `json:"pop_size,omitempty"`
	MaxIterations int              `json:"max_iterations,omitempty"`
	Reps          int              `json:"reps,omitempty"`
	Seed          int64            `json:"seed,omitempty"`
	Parallelism   int              `json:"parallelism,omitempty"`
	Fix           map[string]int64 `json:"fix,omitempty"`

	// Drift attaches a time-varying machine schedule (regimes of
	// background load, degraded OSTs, and contention switching at
	// simulated timestamps).
	Drift *tunio.Drift `json:"drift,omitempty"`
	// Online runs the job as an online (drift-aware) session: service
	// windows with drift detection and incremental re-tuning. The events
	// stream then carries "window" and "retune" events instead of
	// "point".
	Online *OnlineRequest `json:"online,omitempty"`
}

// OnlineRequest configures an online session on the wire; zero values
// take the controller defaults. It is the engine's own spec, whose JSON
// tags are the wire names.
type OnlineRequest = tunio.OnlineSpec

// PointJSON is one tuning-curve observation on the wire.
type PointJSON struct {
	Iteration   int     `json:"iteration"`
	TimeMinutes float64 `json:"time_minutes"`
	IterPerf    float64 `json:"iter_perf_mbs"`
	BestPerf    float64 `json:"best_perf_mbs"`
}

func toPointJSON(p metrics.Point) PointJSON {
	return PointJSON{
		Iteration:   p.Iteration,
		TimeMinutes: p.TimeMinutes,
		IterPerf:    p.IterPerf,
		BestPerf:    p.BestPerf,
	}
}

// JobResult is the terminal payload of a finished job.
type JobResult struct {
	BestPerf     float64          `json:"best_perf_mbs"`
	Baseline     float64          `json:"baseline_mbs"`
	Speedup      float64          `json:"speedup"`
	StoppedAt    int              `json:"stopped_at"`
	StoppedEarly bool             `json:"stopped_early"`
	Evaluations  int              `json:"evaluations"`
	TotalMinutes float64          `json:"total_minutes"`
	BestConfig   map[string]int64 `json:"best_config"`
	BestChanged  []string         `json:"best_changed_from_default,omitempty"`
	Curve        []PointJSON      `json:"curve"`
	Engine       tunio.EngineInfo `json:"engine"`
	// Drift is the online session's full result (window series, re-tune
	// log, adaptation costs); absent for one-shot jobs.
	Drift *tunio.DriftResult `json:"drift,omitempty"`
}

// JobStatus is the status payload.
type JobStatus struct {
	ID      string     `json:"id"`
	Tenant  string     `json:"tenant,omitempty"`
	Kernel  string     `json:"kernel"`
	State   string     `json:"state"` // running | done | failed | canceled
	Points  int        `json:"points"`
	Error   string     `json:"error,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
	Created time.Time  `json:"created"`
}

// state names where the job stands — running | done | failed | canceled —
// with the outcome behind it once there is one. It reads the run's result
// and nothing else, so a census over every retained job costs O(jobs).
func (j *job) state() (state string, res *tunio.Result, err error) {
	res, err, finished := j.run.Result()
	switch {
	case !finished:
		return "running", nil, nil
	case err == nil:
		return "done", res, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "canceled", nil, err
	}
	return "failed", nil, err
}

// status snapshots the job.
func (j *job) status() JobStatus {
	state, res, err := j.state()
	st := JobStatus{
		ID:      j.id,
		Tenant:  j.tenant,
		Kernel:  j.kernel,
		State:   state,
		Points:  len(j.run.Points(0)),
		Created: j.created,
	}
	if res != nil {
		st.Result = resultJSON(res)
		if d, ok := j.run.Drift(); ok {
			st.Result.Drift = d
		}
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

func resultJSON(res *tunio.Result) *JobResult {
	out := &JobResult{
		BestPerf:     res.BestPerf,
		Baseline:     res.Curve.Baseline(),
		Speedup:      res.Curve.Speedup(),
		StoppedAt:    res.StoppedAt,
		StoppedEarly: res.StoppedEarly,
		Evaluations:  res.Evaluations,
		TotalMinutes: res.Curve.TotalMinutes(),
		BestConfig:   map[string]int64{},
		BestChanged:  res.Best.ChangedFromDefault(),
		Engine:       res.EngineInfo,
	}
	for _, p := range res.Best.Space() {
		out.BestConfig[p.Name] = res.Best.Value(p.Name)
	}
	for _, p := range res.Curve {
		out.Curve = append(out.Curve, toPointJSON(p))
	}
	return out
}

// agent returns a private copy of the served RL agent, training it on
// first use when none was injected. The copy is what loading the agent from
// its serialized form yields (TunIO.Clone), and it is taken from a copy made
// at first use, so nothing a job or the injecting caller does to an agent
// afterwards reaches another job.
func (s *Server) agent() (*tunio.TunIO, error) {
	s.agentOnce.Do(func() {
		a := s.opts.Agent
		if a == nil {
			tc := s.opts.Train
			if tc == nil {
				tc = &tunio.TrainConfig{Seed: 1}
			}
			var err error
			a, err = tunio.Train(*tc)
			if err != nil {
				s.agentErr = fmt.Errorf("training agent: %w", err)
				return
			}
		}
		s.agent0, s.agentErr = a.Clone()
	})
	if s.agentErr != nil {
		return nil, s.agentErr
	}
	return s.agent0.Clone()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job: %w", err))
		return
	}
	spec := tunio.JobSpec{
		Workload:      req.Workload,
		Source:        req.Source,
		Discover:      req.Discover,
		Tenant:        r.Header.Get("X-Tunio-Tenant"),
		Nodes:         req.Nodes,
		ProcsPerNode:  req.ProcsPerNode,
		PopSize:       req.PopSize,
		MaxIterations: req.MaxIterations,
		Reps:          req.Reps,
		Seed:          req.Seed,
		Parallelism:   req.Parallelism,
		Fix:           req.Fix,
		Drift:         req.Drift,
		Online:        req.Online,
	}
	if spec.Parallelism == 0 {
		spec.Parallelism = defaultParallelism
	}
	switch req.Pipeline {
	case "", "hstuner":
		// plain pipeline: no stopper, no picker
	case "heuristic":
		spec.Heuristic = true
	case "tunio":
		agent, err := s.agent()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		spec.Agent = agent
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown pipeline %q (want hstuner, heuristic, or tunio)", req.Pipeline))
		return
	}

	// The session must outlive this request: it is canceled through the
	// cancel endpoint (or engine shutdown), not by the submit connection
	// closing.
	run, err := s.engine.Tune(context.Background(), spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, tunio.ErrQuotaExceeded) {
			code = http.StatusTooManyRequests
		}
		httpError(w, code, err)
		return
	}
	kernel := req.Workload
	if kernel == "" {
		kernel = "source"
	}
	s.mu.Lock()
	s.nextID++
	j := &job{
		id:      "job-" + strconv.Itoa(s.nextID),
		tenant:  spec.Tenant,
		kernel:  kernel,
		online:  spec.Online != nil,
		run:     run,
		created: time.Now().UTC(),
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *job {
	s.mu.RLock()
	j := s.jobs[r.PathValue("id")]
	s.mu.RUnlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, filter := r.URL.Query().Get("tenant"), r.URL.Query().Has("tenant")
	s.mu.RLock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if !filter || j.tenant == tenant {
			all = append(all, j)
		}
	}
	s.mu.RUnlock()
	sort.Slice(all, func(i, k int) bool { return numericID(all[i].id) < numericID(all[k].id) })
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func numericID(id string) int {
	n, _ := strconv.Atoi(id[len("job-"):])
	return n
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.run.Cancel()
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleEvents streams the job's progress as server-sent events: every
// recorded event replays first (so late subscribers see the full
// history), live events follow in order, and a terminal "done" event
// carries the final status. One-shot jobs stream tuning-curve points:
//
//	event: point
//	data: {"iteration":0,"time_minutes":…}
//
//	event: done
//	data: {"id":"job-1","state":"done",…}
//
// Online jobs stream service windows and re-tune announcements instead:
//
//	event: window
//	data: {"window":0,"perf_mbs":…}
//
//	event: retune
//	data: {"window":7,"reason":"bandwidth below expected profile…",…}
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	if j.online {
		for ev := range j.run.OnlineEvents(r.Context()) {
			name, payload := "window", any(ev.Window)
			if ev.Retune != nil {
				name, payload = "retune", any(ev.Retune)
			}
			if err := s.writeSSE(w, name, payload); err != nil {
				return
			}
			flusher.Flush()
		}
	} else {
		for p := range j.run.Events(r.Context()) {
			if err := s.writeSSE(w, "point", toPointJSON(p)); err != nil {
				return
			}
			flusher.Flush()
		}
	}
	if r.Context().Err() != nil {
		return // client went away mid-stream
	}
	// Events closed because the run finished and every point was sent.
	s.writeSSE(w, "done", j.status())
	flusher.Flush()
}

// writeSSE assembles one SSE frame in a pooled buffer and writes it with
// a single Write. No server lock is held here: a slow reader blocks only
// its own stream. The frame layout ("event: …\ndata: …\n\n") is
// byte-identical to the former fmt.Fprintf form — json.Encoder terminates
// the data line's JSON with the first of the two newlines.
func (s *Server) writeSSE(w http.ResponseWriter, event string, payload any) error {
	buf, _ := s.ssePool.Get().(*bytes.Buffer)
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	buf.WriteString("event: ")
	buf.WriteString(event)
	buf.WriteString("\ndata: ")
	if err := json.NewEncoder(buf).Encode(payload); err != nil {
		s.ssePool.Put(buf)
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	s.ssePool.Put(buf)
	return err
}

// StatsResponse is the GET /v1/stats payload: the engine's aggregated
// counters plus derived hit rates and the server's job-state census. The
// cache sections quantify the cross-session sharing win: kernel-store
// hits are whole trace recordings skipped; stage hits are plan/lower
// stages served from another session's (or genome's) work.
type StatsResponse struct {
	tunio.EngineStats
	StageHitRate  float64        `json:"stage_hit_rate"`
	PlanHitRate   float64        `json:"plan_hit_rate"`
	WireHitRate   float64        `json:"wire_hit_rate"`
	KernelHitRate float64        `json:"kernel_hit_rate"`
	MemoHitRate   float64        `json:"memo_hit_rate"`
	Jobs          map[string]int `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.engine.Stats()
	out := StatsResponse{
		EngineStats:   es,
		StageHitRate:  es.Stage.HitRate(),
		PlanHitRate:   es.Stage.PlanHitRate(),
		WireHitRate:   es.Stage.WireHitRate(),
		KernelHitRate: es.Kernels.HitRate(),
		Jobs:          map[string]int{},
	}
	if t := es.MemoHits + es.MemoMisses; t > 0 {
		out.MemoHitRate = float64(es.MemoHits) / float64(t)
	}
	// Reading a state takes the run's own mutex for a field load — cheap
	// enough to do under the table's read lock, with no copy of the table.
	s.mu.RLock()
	for _, j := range s.jobs {
		state, _, _ := j.state()
		out.Jobs[state]++
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
