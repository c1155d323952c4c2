package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// files: the program under test carries no timers. Times are nanoseconds
// since the recorder was created; Parent is the index of the span that
// made the call (-1 for a job's root span); Job is the job the span
// belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// recorder keeps spans in memory until the pass ends. The traced pass is
// single-goroutine, so the open spans form a stack and children never
// overlap their siblings.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	job   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Job: r.job})
	r.open = append(r.open, id)
	r.spans[id].Start = r.now()
	return id
}

// end closes the span, which must be the innermost open one.
func (r *recorder) end(id int) {
	r.spans[id].End = r.now()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("bench: span closed out of order: " + r.spans[id].Name)
	}
	r.open = r.open[:len(r.open)-1]
}

// rootSpan names a job's outermost span; its self time is the part of the
// job no layer span covers.
const rootSpan = "job"

// ledger is the per-layer account of the traced jobs (spans of warm-up,
// job id < 0, are left out): for every span
// name, how many calls there were and the time spent in them and not in a
// child span. Self times of all names, the root's included, sum to Total
// — the root spans' duration — exactly: a span's self time is its
// duration minus its children's, so the sum telescopes.
type ledger struct {
	Self  map[string]int64
	Calls map[string]int64
	Total int64
	Jobs  int
}

func (r *recorder) ledger() ledger {
	l := ledger{Self: map[string]int64{}, Calls: map[string]int64{}}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		if s.Job < 0 {
			continue // warm-up
		}
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		} else {
			l.Total += s.End - s.Start
			l.Jobs++
		}
	}
	for i, s := range r.spans {
		if s.Job < 0 {
			continue
		}
		l.Self[s.Name] += self[i]
		l.Calls[s.Name]++
	}
	return l
}

// meanDuration is the mean length in nanoseconds of every span of the
// name, warm-up included.
func (r *recorder) meanDuration(name string) float64 {
	var total, n float64
	for _, s := range r.spans {
		if s.Name == name {
			total += float64(s.End - s.Start)
			n++
		}
	}
	return ratio(total, n)
}

// perCall, perJob, callsPerJob and share read the ledger; unit is the
// number of nanoseconds in the unit wanted.
func (l ledger) perCall(name string, unit float64) float64 {
	return ratio(float64(l.Self[name])/unit, float64(l.Calls[name]))
}

func (l ledger) perJob(name string, unit float64) float64 {
	return ratio(float64(l.Self[name])/unit, float64(l.Jobs))
}

func (l ledger) callsPerJob(name string) float64 {
	return ratio(float64(l.Calls[name]), float64(l.Jobs))
}

func (l ledger) share(names ...string) float64 {
	var t int64
	for _, n := range names {
		t += l.Self[n]
	}
	return ratio(float64(t), float64(l.Total))
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    string `json:"scale"`
	// SelfNS is the ledger: self time per span name, in nanoseconds;
	// "job" is the unattributed remainder. The values sum to TotalNS.
	SelfNS  map[string]int64 `json:"self_ns"`
	Calls   map[string]int64 `json:"calls"`
	TotalNS int64            `json:"total_ns"`
	Jobs    int              `json:"jobs"`
	Spans   []span           `json:"spans"`
}

func (r *recorder) write(cfg runConfig) error {
	l := r.ledger()
	f := traceFile{Workload: cfg.def.name, Seed: cfg.seed, Scale: cfg.sc.name,
		SelfNS: l.Self, Calls: l.Calls, TotalNS: l.Total, Jobs: l.Jobs, Spans: r.spans}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.def.name+".json"), b, 0o644)
}
