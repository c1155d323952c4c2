package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tunio/internal/analysis"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/server"
)

func smokeConfig(t *testing.T, name string) runConfig {
	t.Helper()
	sc, err := scaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	d, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{def: d, sc: sc, seed: 3, seconds: sc.seconds, outDir: t.TempDir()}
}

func bodies(t *testing.T, d *workloadDef, sc scale, seed int64, n int) [][]byte {
	t.Helper()
	g, err := newGenerator(d, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		in, err := g.job(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = in.Body
	}
	return out
}

// The same seed must generate byte-identical requests and another seed
// a different sequence, at both scales; and a body must hold nothing but a
// tuniod job request — no benchmark seed field, no workload name the
// server could key on.
func TestGeneratorDeterminism(t *testing.T) {
	for _, scName := range []string{"full", "smoke"} {
		sc, err := scaleByName(scName)
		if err != nil {
			t.Fatal(err)
		}
		for i := range workloads {
			d := &workloads[i]
			const n = 45
			a, b, c := bodies(t, d, sc, 7, n), bodies(t, d, sc, 7, n), bodies(t, d, sc, 8, n)
			same := 0
			for k := range a {
				if !bytes.Equal(a[k], b[k]) {
					t.Fatalf("%s/%s: job %d differs between two generations from seed 7", scName, d.name, k)
				}
				if bytes.Equal(a[k], c[k]) {
					same++
				}
				var req server.JobRequest
				dec := json.NewDecoder(bytes.NewReader(a[k]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					t.Fatalf("%s/%s: job %d is not a plain job request: %v", scName, d.name, k, err)
				}
				for _, w := range workloads {
					if bytes.Contains(a[k], []byte(w.name)) {
						t.Fatalf("%s/%s: job %d names benchmark workload %q", scName, d.name, k, w.name)
					}
				}
			}
			// Another seed means other programs where every job is
			// distinct, and another order of the catalogue otherwise.
			if distinct := d.sizing(sc).distinct; (distinct == 0 && same > 0) || same == n {
				t.Fatalf("%s/%s: %d of %d jobs are identical under seeds 7 and 8", scName, d.name, same, n)
			}
		}
	}
}

// Every cold_source program must parse, pass discovery, record, and carry
// a kernel hash no other program of the run has — otherwise later jobs
// would hit the kernel store or the stage cache and the workload would not
// be cold.
func TestColdSourceKernelsDistinct(t *testing.T) {
	cfg := smokeConfig(t, "cold_source")
	g, err := newGenerator(cfg.def, cfg.sc, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(newRecorder(), nil)
	seen := map[string]int{}
	for i := 0; i < 3*coldShapes; i++ {
		in, err := g.job(i)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.CoriHaswell(in.Req.Nodes, in.Req.ProcsPerNode)
		kern, err := p.resolve(in.Req, c)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, in.Req.Source)
		}
		ent, err := p.record(kern, c, params.Space(), in.Req.Seed)
		if err != nil {
			t.Fatalf("program %d does not record: %v", i, err)
		}
		if !strings.HasPrefix(ent.KernelHash, "sig:") {
			t.Errorf("program %d has no exact signature: %s", i, ent.KernelHash)
		}
		if k, dup := seen[ent.KernelHash]; dup {
			t.Fatalf("programs %d and %d share kernel hash %s", k, i, ent.KernelHash)
		}
		seen[ent.KernelHash] = i
	}
}

// FLASH is the one application whose unit perturbs two extents, and the
// engine's kernel hash sees them only as their product: over every unit, the
// signatures of the discovered kernels must still differ pairwise. (With
// extents whose products repeat, the second program of a pair was served
// the first one's curve, and the run failed whenever the library check
// sampled it.)
func TestColdSourceFlashUnitsDistinct(t *testing.T) {
	seen := map[string]int64{}
	for u := int64(0); u < coldUnits; u++ {
		k, err := discovery.Discover(coldProgram(2, u, 128, "/scratch/app.h5"), discovery.Options{})
		if err != nil {
			t.Fatalf("unit %d: %v", u, err)
		}
		prog, err := csrc.Parse(k.Source)
		if err != nil {
			t.Fatalf("unit %d: %v", u, err)
		}
		sig := analysis.ComputeSignature(prog, analysis.SignatureOptions{})
		if !sig.Exact {
			t.Fatalf("unit %d has no exact signature: %s", u, sig.Reason)
		}
		if v, dup := seen[sig.Hash()]; dup {
			t.Fatalf("units %d and %d share signature %s", v, u, sig.Hash())
		}
		seen[sig.Hash()] = u
	}
}

// A run of distinct programs fails when the engine takes two of them for
// one kernel.
func TestSharedKernelsReported(t *testing.T) {
	ok := []served{{Index: 0, Kernel: "sig:a"}, {Index: 1, Kernel: "sig:b"}, {Index: 2, Kernel: "sig:a"}}
	if got := sharedKernels(ok); len(got) != 1 || !strings.Contains(got[0], "jobs 0 and 2") {
		t.Fatalf("sharedKernels = %q, want one report of jobs 0 and 2", got)
	}
	if got := sharedKernels(ok[:2]); len(got) != 0 {
		t.Fatalf("sharedKernels = %q on distinct kernels", got)
	}
}

// All four workloads, both passes, at smoke scale: every answer checked,
// every metric of BENCHMARK.json measured, a trace file written.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		cfg := smokeConfig(t, workloads[i].name)
		e2e, err := endToEndPass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !e2e.line.Correct || e2e.line.Failed != 0 || e2e.Verified == 0 {
			t.Fatalf("%s: end-to-end pass: correct=%v failed=%d verified=%d %v",
				cfg.def.name, e2e.line.Correct, e2e.line.Failed, e2e.Verified, e2e.Failures)
		}
		for _, m := range endToEnd {
			if v := e2e.line.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", cfg.def.name, m.Name, v)
			}
		}
		layers, err := tracedPass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !layers.line.Correct {
			t.Fatalf("%s: traced pass: %v", cfg.def.name, layers.Failures)
		}
		if len(layers.line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", cfg.def.name, len(layers.line.Metrics), len(perLayer))
		}
		if got := layers.values["trace.curve_match_share"]; got != 1 {
			t.Errorf("%s: traced pipeline matched %v of the served curves, want all", cfg.def.name, got)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+cfg.def.name+".json")); err != nil {
			t.Error(err)
		}
	}
}

// The ledger's arithmetic: self times (the unattributed root remainder
// among them) sum to the traced jobs' spans to the nanosecond, children
// lie inside their parents and belong to the same job, and the simulated
// counts of two passes from one seed are identical.
func TestLedgerArithmetic(t *testing.T) {
	for _, name := range []string{"cold_source", "warm_repeat", "online_drift"} {
		cfg := smokeConfig(t, name)
		first, err := tracedPass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		var sum, roots int64
		for _, v := range tf.SelfNS {
			sum += v
		}
		jobs := map[int]bool{}
		for i, s := range tf.Spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %d ends before it starts", name, i)
			}
			if s.Parent < 0 {
				if s.Name != rootSpan {
					t.Fatalf("%s: span %d (%s) has no parent and is not a job root", name, i, s.Name)
				}
				if s.Job >= 0 {
					roots += s.End - s.Start
					jobs[s.Job] = true
				}
				continue
			}
			p := tf.Spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %d (%s) is not nested inside its parent %d (%s)", name, i, s.Name, s.Parent, p.Name)
			}
			if s.Job != p.Job {
				t.Fatalf("%s: span %d (%s) carries job %d, its parent job %d", name, i, s.Name, s.Job, p.Job)
			}
		}
		if sum != tf.TotalNS || roots != tf.TotalNS {
			t.Fatalf("%s: self times sum to %d ns, root spans to %d ns, ledger total %d ns", name, sum, roots, tf.TotalNS)
		}
		if len(jobs) != cfg.def.smoke.traced || tf.Jobs != len(jobs) {
			t.Fatalf("%s: ledger covers %d jobs (%d roots), want %d", name, tf.Jobs, len(jobs), cfg.def.smoke.traced)
		}

		second, err := tracedPass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range perLayer {
			if m.Sim && first.values[m.Name] != second.values[m.Name] {
				t.Errorf("%s: simulated count %s moved between two passes of one seed: %v then %v",
					name, m.Name, first.values[m.Name], second.values[m.Name])
			}
		}
	}
}

// A reference digest that does not match what was served must fail the
// command, not just lower a number.
func TestCorruptDigestFails(t *testing.T) {
	corruptDigest = true
	defer func() { corruptDigest = false }()
	err := run([]string{"-workload", "burst_small", "-scale", "smoke", "-trace", "0", "-out", t.TempDir()})
	if err == nil {
		t.Fatal("the command accepted a served curve that differs from its library run")
	}
}

// Two end-to-end passes from one seed serve the same curves: the
// simulated metrics and the digest over them repeat exactly.
func TestSimulatedMetricsRepeat(t *testing.T) {
	cfg := smokeConfig(t, "cold_source")
	a, err := endToEndPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := endToEndPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimDigest != b.SimDigest {
		t.Errorf("sim_digest %s then %s", a.SimDigest, b.SimDigest)
	}
	for _, m := range endToEnd {
		if m.Sim && a.values[m.Name] != b.values[m.Name] {
			t.Errorf("%s: %v then %v", m.Name, a.values[m.Name], b.values[m.Name])
		}
	}
}

// The benchmark may use only surfaces that survive the planned deletions
// (ROADMAP: one evaluation path), so that change never has to edit it.
// The names are assembled here so this file passes its own check.
func TestImportHygiene(t *testing.T) {
	forbidden := []*regexp.Regexp{
		regexp.MustCompile(`No` + `Trace|no_` + `trace`),
		regexp.MustCompile(`Seriali` + `ze\(\)`),
		regexp.MustCompile(`tuner\.Eval` + `uator\b`),
		regexp.MustCompile(`Adapt` + `Evaluator|Fallback` + `Evaluator`),
		regexp.MustCompile(`Trace` + `Evaluator|Kernel` + `Style|\.Leg` + `acy\b`),
		regexp.MustCompile(`tunio\.Tr` + `ain\(`),
		regexp.MustCompile(`tunio\.Sess` + `ion|New` + `Session`),
		regexp.MustCompile(`Precise` + `Slice`),
		regexp.MustCompile(`internal/serve` + `bench|internal/experi` + `ments`),
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			for _, re := range forbidden {
				if re.MatchString(line) {
					t.Errorf("%s:%d references %s, which is scheduled for deletion", f, n+1, re)
				}
			}
		}
	}
}

// BENCHMARK.json is written by hand; the metric tables in metrics.go and
// the workload list in workloads.go are what the program prints. They must
// say the same thing.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json is not beside the bench directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	sc, _ := scaleByName("full")
	if float64(doc.RunSeconds) != sc.seconds {
		t.Errorf("run_seconds %d, the full scale measures for %g", doc.RunSeconds, sc.seconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q (%q), defined %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: bound listed %v, defined %v", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
