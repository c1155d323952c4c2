// The replay-backed kernel tests live in an external test package because
// they execute kernels through cinterp, which itself depends on discovery
// for the loop-reduction builtin.
package discovery_test

import (
	"reflect"
	"strings"
	"testing"

	"tunio/internal/analysis"
	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// replayFixtures returns shrunk paper-workload sources for kernel replay.
func replayFixtures(t *testing.T, nprocs int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range []string{"vpic", "flash", "hacc"} {
		w, err := workload.ByName(name, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		switch x := w.(type) {
		case *workload.VPIC:
			x.ParticlesPerRank = 16 << 10
			x.ComputeFlops = 1e9
		case *workload.FLASH:
			x.BlocksPerRank = 8
			x.Unknowns = 3
		case *workload.HACC:
			x.ParticlesPerRank = 16 << 10
		}
		cw, ok := w.(workload.HasCSource)
		if !ok {
			t.Fatalf("%s has no C source", name)
		}
		out[name] = cw.CSource()
	}
	return out
}

// runTrace executes a program on a fresh simulated stack and records its
// I/O request stream: the trace without the compute phases a kernel drops.
func runTrace(t *testing.T, name, source string, c *cluster.Cluster) *replay.Trace {
	t.Helper()
	prog, err := csrc.Parse(source)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	st, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 99)
	if err != nil {
		t.Fatal(err)
	}
	rec := replay.NewRecorder(c.Procs())
	detach := rec.Attach(st.Lib)
	defer detach()
	if _, err := cinterp.Run(prog, st.Lib); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	io := &replay.Trace{Nprocs: c.Procs()}
	for _, ev := range rec.Trace().Events {
		if ev.Kind != replay.EvCompute {
			io.Events = append(io.Events, ev)
		}
	}
	return io
}

// TestPreciseSliceReplayIdentical asserts both the heuristic and the
// precisely sliced kernels replay the exact I/O request stream of the
// original applications.
func TestPreciseSliceReplayIdentical(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	c.Noise = 0
	for name, src := range replayFixtures(t, c.Procs()) {
		orig := runTrace(t, name+"/original", src, c)

		prec, err := discovery.Discover(src, discovery.Options{})
		if err != nil {
			t.Fatalf("%s precise: %v", name, err)
		}
		precTrace := runTrace(t, name+"/precise-kernel", prec.Source, c)
		if !reflect.DeepEqual(orig.Events, precTrace.Events) {
			t.Errorf("%s: precise kernel I/O stream differs from the application (%d vs %d events)",
				name, len(precTrace.Events), len(orig.Events))
		}

		heur, err := discovery.Discover(src, discovery.Options{Heuristic: true})
		if err != nil {
			t.Fatalf("%s heuristic: %v", name, err)
		}
		heurTrace := runTrace(t, name+"/heuristic-kernel", heur.Source, c)
		if !reflect.DeepEqual(orig.Events, heurTrace.Events) {
			t.Errorf("%s: heuristic kernel I/O stream differs from the application (%d vs %d events)",
				name, len(heurTrace.Events), len(orig.Events))
		}
	}
}

// stripMemPrefix normalizes a switched trace: file paths lose their
// /dev/shm prefix so they compare against the original application's.
func stripMemPrefix(events []replay.Event) []replay.Event {
	out := append([]replay.Event(nil), events...)
	for i := range out {
		out[i].File = strings.TrimPrefix(out[i].File, "/dev/shm")
	}
	return out
}

// TestPathSwitchResolvesComputedPaths is the tentpole end-to-end check:
// the fixture workloads build their output path with sprintf of constant
// parts, so path switching must resolve the computed argument via
// string-constant propagation (no TR003), rewrite it to /dev/shm, and the
// switched kernel must replay the application's exact I/O request stream
// modulo the /dev/shm prefix on file paths.
func TestPathSwitchResolvesComputedPaths(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	c.Noise = 0
	for name, src := range replayFixtures(t, c.Procs()) {
		orig := runTrace(t, name+"/original", src, c)

		k, err := discovery.Discover(src, discovery.Options{PathSwitch: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range k.Warnings {
			if w.Code == analysis.CodeComputedPath {
				t.Errorf("%s: TR003 still raised for a resolvable computed path: %s", name, w)
			}
		}
		if len(k.ResolvedPaths) == 0 {
			t.Fatalf("%s: no resolved paths recorded on the kernel", name)
		}
		rp := k.ResolvedPaths[0]
		if !strings.HasPrefix(rp.Switched, "/dev/shm/") || rp.Path == "" {
			t.Errorf("%s: bad resolution %+v", name, rp)
		}
		if !strings.Contains(k.Source, `"`+rp.Switched+`"`) {
			t.Errorf("%s: switched literal %q not substituted into the kernel:\n%s", name, rp.Switched, k.Source)
		}

		trace := runTrace(t, name+"/switched-kernel", k.Source, c)
		if !reflect.DeepEqual(orig.Events, stripMemPrefix(trace.Events)) {
			t.Errorf("%s: switched kernel I/O stream differs modulo prefix (%d vs %d events)",
				name, len(trace.Events), len(orig.Events))
		}
		for _, ev := range trace.Events {
			if ev.File != "" && !strings.HasPrefix(ev.File, "/dev/shm") {
				t.Errorf("%s: event file %q did not land in /dev/shm", name, ev.File)
			}
		}
	}
}
