package tunio

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// There is one evaluation path: a kernel is traced by tuner.ResolveKernel
// and a genome is scored by staged replay of that trace, seeded by SeedFor.
// The engines, selectors, baselines and aliases deleted to get there must
// not drift back, so no Go source outside bench/ may name them. This is the
// mirror of bench/'s TestImportHygiene (which keeps the frozen benchmark
// off the same surfaces); the names are assembled here so this file passes
// its own check.
func TestOneEvaluationPath(t *testing.T) {
	everywhere := []*regexp.Regexp{
		regexp.MustCompile(`No` + `Trace|no_` + `trace|-no` + `trace\b`),
		regexp.MustCompile(`Adapt` + `Evaluator|Fallback` + `Evaluator|serial` + `Batch\b`),
		regexp.MustCompile(`Kernel` + `Style|\.Leg` + `acy\b|\bNo` + `Fold\b`),
		regexp.MustCompile(`Seriali` + `ze\(\)`),
		regexp.MustCompile(`\bPrecise` + `Slice\b`),
		regexp.MustCompile(`\bExec` + `Budget\b`),
		regexp.MustCompile(`serve` + `bench|BENCH_` + `serve`),
		regexp.MustCompile(`core\.Tr` + `ain\b`),
		regexp.MustCompile(`traceFor` + `Online`),
		regexp.MustCompile(`tuner\.R` + `un\(|tuner\.Eval` + `uator\b`),
		regexp.MustCompile(`tunio\.Sess` + `ion\b|tunio\.New` + `Session\b`),
		// the bound-key single-trace stage-cache API
		regexp.MustCompile(`\bNewStage` + `Cache\(`),
	}
	// Declarations that may exist elsewhere (core.Session is what
	// Refinement names) but not in the packages that dropped them.
	perDir := map[string][]*regexp.Regexp{
		".": {
			regexp.MustCompile(`^type Sess` + `ion\b|^func NewSess` + `ion\b`),
		},
		"internal/tuner": {
			regexp.MustCompile(`^type Eval` + `uator\b|^func R` + `un\(`),
			regexp.MustCompile(`\bWorkload` + `Evaluator\{|\bCSource` + `Evaluator\{`),
		},
		"internal/core": {
			regexp.MustCompile(`^func Tr` + `ain\(|\) Ref` + `ine\(`),
		},
	}

	goSources(t, func(path string, src []byte) {
		forbidden := append(everywhere[:len(everywhere):len(everywhere)], perDir[filepath.ToSlash(filepath.Dir(path))]...)
		for n, line := range strings.Split(string(src), "\n") {
			for _, re := range forbidden {
				if re.MatchString(line) {
					t.Errorf("%s:%d names %s, which the one evaluation path deleted", path, n+1, re)
				}
			}
		}
	})
}

// There is one cache implementation: internal/cowmap holds the only
// copy-on-write map, and every shared table is one. No other non-test
// source outside bench/ may publish a map through an atomic pointer by
// hand, and the names of the sharded cache and the private copies it
// replaced must not drift back (assembled here, as above, so this file
// passes its own check).
func TestOneCacheImplementation(t *testing.T) {
	cow := regexp.MustCompile(`atomic\.Pointer\[` + `map\[`)
	deleted := regexp.MustCompile(`stageShard` + `Count|shard` + `Of\b|cache` + `Shard|insert` + `Locked|memo` + `State|tables` + `Mu\b`)
	var holders []string
	goSources(t, func(path string, src []byte) {
		if cow.Match(src) && !strings.HasSuffix(path, "_test.go") {
			holders = append(holders, filepath.ToSlash(path))
		}
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s names %s, which the one cache implementation deleted", path, m)
		}
	})
	if len(holders) != 1 || holders[0] != "internal/cowmap/cowmap.go" {
		t.Errorf("hand-published maps in %v: internal/cowmap/cowmap.go must be the only one", holders)
	}
}

// There is one yardstick for host speed: bench/ (BENCHMARK.json), with
// `go test -bench` for micro-benchmarks. The in-tree harness that timed
// evaluation populations and training runs, and what only it kept alive —
// the constant-folding pass, the interpreted sweep, the JSON-figure differ,
// the three host-speed BENCH files — must not drift back into a Go source
// outside bench/ or a script; the live-run reference evaluators stay test
// code of internal/tuner; the interpreter stays off the analysis layer; the
// figures of internal/experiments are simulated quantities, so the package
// reads no host clock (names assembled here, as above, so this file passes
// its own check).
func TestOneYardstick(t *testing.T) {
	deleted := regexp.MustCompile(`(?i:eval|train)[Bb]` + `ench|interp` + `Sweep|cinterp\.Fo` + `ld\b|Fold` + `Report|bench` + `json|BENCH_(eval|tr` + `ain|host)`)
	reference := regexp.MustCompile(`(?m)^type Seeded\w*` + `Evaluator\b`)
	analysisImport := regexp.MustCompile(`"tunio/internal/` + `analysis"`)
	timeImport := regexp.MustCompile(`(?m)^\s*"ti` + `me"$`)
	check := func(path string, src []byte) {
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s names %s, which belonged to the deleted in-tree timing harness", path, m)
		}
	}
	goSources(t, func(path string, src []byte) {
		check(path, src)
		switch dir := filepath.ToSlash(filepath.Dir(path)); {
		case dir == "internal/tuner" && !strings.HasSuffix(path, "_test.go") && reference.Match(src):
			t.Errorf("%s declares a live-run reference evaluator: internal/tuner exports one way to score a genome", path)
		case dir == "internal/cinterp" && analysisImport.Match(src):
			t.Errorf("%s imports internal/analysis: the interpreter runs programs, it does not analyse them", path)
		case dir == "internal/experiments" && !strings.HasSuffix(path, "_test.go") && timeImport.Match(src):
			t.Errorf("%s imports time: a figure holds simulated quantities, host speed is bench/'s", path)
		}
	})
	scripts, err := os.ReadDir("scripts")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range scripts {
		path := filepath.Join("scripts", e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check(path, src)
	}
}

// There is one HDF5 model: internal/hdf5 alone knows which metadata a call
// dirties, where a dataset is allocated and aligned, which extents a
// hyperslab becomes and when metadata flushes. Stage 1 of staged replay is
// that library built without a simulation, driven by the one trace walker
// live replay also uses. The planning core's re-exports and the second
// state machine they fed must not drift back into a non-test source outside
// internal/hdf5 and bench/, and internal/replay keeps a single walker over
// the event kinds — validate.go's signature cross-check aside (names
// assembled here, as above, so this file passes its own check).
func TestOneHDF5Model(t *testing.T) {
	deleted := regexp.MustCompile(`\b(Superblock` + `Bytes|ObjectHeader` + `Bytes|GroupHeader` + `Bytes|AttributeHeader` + `Bytes|` +
		`OpenFile` + `MetaItems|OpenDataset` + `MetaItems|MetaItem` + `Size|MetaItems` + `For|ContiguousSlab` + `Extents|` +
		`NewChunk` + `Planner|NewChunk` + `Cache|planFile` + `State|plan` + `Dataset)\b`)
	walks := regexp.MustCompile(`case [^:\n]*\bEvCreate` + `Dataset\b`)
	var walkers []string
	goSources(t, func(path string, src []byte) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || dir == "internal/hdf5" {
			return
		}
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s names %s: the HDF5 model lives in internal/hdf5 alone", path, m)
		}
		if dir == "internal/replay" && filepath.Base(path) != "validate.go" && walks.Match(src) {
			walkers = append(walkers, filepath.ToSlash(path))
		}
	})
	if len(walkers) != 1 {
		t.Errorf("trace walkers in %v: internal/replay drives the live and the planning library with one loop", walkers)
	}
}

// The interpreter has no scheduler: simulated ranks run one after another on
// the caller's goroutine and their call logs merge into phases, which only
// holds while nothing a rank is handed depends on another rank. So no
// non-test file of internal/cinterp may start a goroutine, declare a
// channel, select, or import sync — a rank that could wait is a rank that
// could be parked by submitted C — and the side channel the recorder used
// to hear of compute and barriers through (hooks on the simulation; they
// are hdf5.Tracer callbacks now) must not drift back anywhere outside
// bench/ (names assembled here, as above).
func TestInterpreterHasNoScheduler(t *testing.T) {
	deleted := regexp.MustCompile(`\b(Compute` + `Hook|Barrier` + `Hook|App` + `Barrier|done` + `Msg)\b`)
	goSources(t, func(path string, src []byte) {
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s names %s, which went with the interpreter's scheduler", path, m)
		}
		if filepath.ToSlash(filepath.Dir(path)) != "internal/cinterp" || strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"sync`) {
				t.Errorf("%s imports %s", path, imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt, *ast.ChanType, *ast.SelectStmt, *ast.SendStmt:
				t.Errorf("%s holds a %T: ranks run on the caller's goroutine and never wait", path, n)
			}
			return true
		})
	})
}

// The interpreter resolves a program once: names become slots, callees
// become functions and constants become values in one pass per Run
// (resolve.go), and what the ranks run has no name left to look up. So no
// non-test file of internal/cinterp declares a run-time scope or a map from
// names to values, and only the resolve pass knows what a statement or an
// expression of the csrc tree looks like: a second walk over the tree, kept
// beside the resolved form, would have to name them.
func TestInterpreterResolvesOnce(t *testing.T) {
	nodes := regexp.MustCompile(`\bcsrc\.(Expr|Stmt|Ident|NumberLit|StringLit|CharLit|BinaryExpr|UnaryExpr|CallExpr|IndexExpr|` +
		`CastExpr|SizeofExpr|DeclStmt|ExprStmt|AssignStmt|Block|IfStmt|ForStmt|WhileStmt|ReturnStmt|BreakStmt|ContinueStmt)\b`)
	byName := regexp.MustCompile(`map\[string\]\*` + `Value|\btype sc` + `ope\b|\bfunc newSc` + `ope\b`)
	var resolvers []string
	goSources(t, func(path string, src []byte) {
		if filepath.ToSlash(filepath.Dir(path)) != "internal/cinterp" || strings.HasSuffix(path, "_test.go") {
			return
		}
		if m := byName.Find(src); m != nil {
			t.Errorf("%s holds %q: a rank looks nothing up by name", path, m)
		}
		if nodes.Match(src) {
			resolvers = append(resolvers, filepath.Base(path))
		}
	})
	if len(resolvers) != 1 || resolvers[0] != "resolve.go" {
		t.Errorf("csrc node types are named in %v: resolve.go must be the only file that walks the tree", resolvers)
	}
}

// A kernel is its trace: the recorded trace is the job path's only identity
// and only oracle. The static I/O signature is a tool of the CLIs, of
// discovery's TR008 and of tests; nothing that resolves, scores or serves a
// kernel consults it, so an analyser's imprecision cannot fail a valid job.
// No non-test source outside bench/ names the signature-derived key or
// spells its prefix, and the packages on the job path below discovery do
// not import the analysis layer (names assembled here, as above).
func TestKernelIsItsTrace(t *testing.T) {
	deleted := regexp.MustCompile(`Signature` + `Key|"si` + `g:`)
	analysisImport := regexp.MustCompile(`"tunio/internal/` + `analysis"`)
	jobPath := map[string]bool{"internal/tuner": true, "internal/train": true, "internal/server": true}
	goSources(t, func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s names %s: a kernel is keyed by its trace alone", path, m)
		}
		if jobPath[filepath.ToSlash(filepath.Dir(path))] && analysisImport.Match(src) {
			t.Errorf("%s imports internal/analysis: the job path records and replays, it does not analyse", path)
		}
	})
}

// A phase is planned in one pass and stage 1 is keyed by what the kernel
// reads. internal/lustre's planner adds every piece of an extent straight
// into the per-OST accumulators: the per-extent piece list it used to build
// first lives on only as the test oracle (plan_oracle_test.go), so no
// non-test file of the package may declare the piece type or a split
// method. And the three plan-stage fields of hdf5.Config are read in three
// places, each of which reports the read (hdf5.PlanReads), which is what
// lets the stage cache blank the parameters a kernel's planning never
// consults: outside internal/hdf5's config.go — the declaration and the
// three reporting accessors — and internal/params, which fills them in, no
// non-test source may name the fields (names assembled here, as above).
func TestPhaseIsPlannedInOnePass(t *testing.T) {
	pieces := regexp.MustCompile(`(?m)^type ost` + `Piece\b|^func \([^)]*\) sp` + `lit\(`)
	fields := regexp.MustCompile(`\.Align` + `ment\b|\bSieveBuf` + `Size\b|\bChunkCache` + `Bytes\b`)
	goSources(t, func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		switch dir := filepath.ToSlash(filepath.Dir(path)); {
		case dir == "internal/lustre":
			if m := pieces.Find(src); m != nil {
				t.Errorf("%s declares %q: a phase's pieces go straight into the accumulators", path, m)
			}
		case dir == "internal/params" || filepath.ToSlash(path) == "internal/hdf5/config.go":
			return
		}
		// the parameter's name constant is not the field
		src = bytes.ReplaceAll(src, []byte("params.SieveBuf"+"Size"), nil)
		if m := fields.Find(src); m != nil {
			t.Errorf("%s names %s: a plan-stage field is read through the hdf5 accessor that reports it", path, m)
		}
	})
}

// goSources calls visit with every Go source of the repository outside
// bench/ (a module of its own, frozen under the benchmark contract).
func goSources(t *testing.T, visit func(path string, src []byte)) {
	t.Helper()
	var checked int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		visit(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d Go sources found: the walk is not seeing the repository", checked)
	}
}

// Code that is declared is code that is reached. Every exported top-level
// func and type of a package under internal/ is named by some non-test
// source — its own package's, another package's, cmd/, examples/ or bench/
// (a module of its own that builds against this one) — so nothing is kept
// alive for its tests alone: a helper only tests call lives in the test
// that calls it. Methods are not checked, and a method's receiver does not
// count as naming its type. Names are collected syntactically (stdlib
// go/parser): elsewhere a reference is a selector pkg.Name on the file's
// import of the package, at home a bare identifier.
func TestInternalExportsAreReached(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // "import/path.Name" -> position
	reached := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "tunio/" + filepath.ToSlash(filepath.Dir(path))
		skip := map[*ast.Ident]bool{} // declared names and receiver types
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				skip[decl.Name] = true
				if decl.Recv != nil {
					ast.Inspect(decl.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				} else if decl.Name.IsExported() {
					declared[pkg+"."+decl.Name.Name] = fset.Position(decl.Pos()).String()
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						skip[ts.Name] = true
						if ts.Name.IsExported() {
							declared[pkg+"."+ts.Name.Name] = fset.Position(ts.Pos()).String()
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					reached[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
			case *ast.Ident:
				if !skip[n] {
					reached[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for name, pos := range declared {
		if !strings.HasPrefix(name, "tunio/internal/") {
			continue
		}
		n++
		if !reached[name] {
			t.Errorf("%s: %s is exported but only tests name it", pos, strings.TrimPrefix(name, "tunio/internal/"))
		}
	}
	if n < 100 {
		t.Fatalf("only %d exported declarations found under internal/: the walk is not seeing the repository", n)
	}
}

// A kernel source is its content. A trace depends on the program or model
// and the process count, nothing else: tuner.ResolveKernel records on a
// planning library, with no machine, seed or configuration under it, and
// files the trace under a key it derives from the content. So
// tuner.KernelSource declares no machine, seed or caller-made key, no
// non-test source of internal/tuner builds a live stack to record on and
// kernel.go does not name the cluster package, and no Go source outside
// internal/tuner spells one of the store-key prefixes callers used to make
// up (names assembled here, as above).
func TestKernelSourceIsItsContent(t *testing.T) {
	liveStack := regexp.MustCompile(`workload\.Build` + `Stack\b`)
	clusterPkg := regexp.MustCompile(`\bcluster\.`)
	keyPrefix := regexp.MustCompile(`"(src|work` + `load|sweep):("|[^\s"])`)
	var declared bool
	goSources(t, func(path string, src []byte) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir != "internal/tuner" {
			if m := keyPrefix.Find(src); m != nil {
				t.Errorf("%s spells the store-key prefix %s: internal/tuner derives every kernel's key", path, m)
			}
			return
		}
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		if m := liveStack.Find(src); m != nil {
			t.Errorf("%s names %s: a kernel is recorded on a planning library", path, m)
		}
		if filepath.Base(path) == "kernel.go" && clusterPkg.Match(src) {
			t.Errorf("%s names the cluster package: a kernel has no machine", path)
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "KernelSource" {
				return true
			}
			declared = true
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range field.Names {
					switch name.Name {
					case "Cluster", "Seed", "StoreKey":
						t.Errorf("%s: KernelSource declares %s: a trace depends on the kernel and its process count alone", path, name.Name)
					}
				}
			}
			return false
		})
	})
	if !declared {
		t.Error("no KernelSource declared in internal/tuner: the guard is not seeing it")
	}
}
