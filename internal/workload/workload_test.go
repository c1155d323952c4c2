package workload

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
)

func testCluster() *cluster.Cluster {
	c := cluster.CoriHaswell(4, 32)
	c.Noise = 0
	return c
}

func defaultSettings() params.StackSettings {
	return params.DefaultAssignment(params.Space()).Settings()
}

// tunedSettings is a reasonable hand-tuned configuration.
func tunedSettings(t *testing.T) params.StackSettings {
	t.Helper()
	a := params.DefaultAssignment(params.Space())
	for name, idx := range map[string]int{
		params.StripingFactor:    9, // 64 OSTs
		params.StripingUnit:      6, // 4 MiB
		params.CollectiveWrite:   1,
		params.CBNodes:           2, // 4 aggregators
		params.CBBufferSize:      6, // 64 MiB
		params.Alignment:         5, // 4 MiB
		params.CollMetadataOps:   1,
		params.CollMetadataWrite: 1,
		params.MDCConfig:         2,
		params.ChunkCache:        6, // 64 MiB
	} {
		if err := a.SetIndex(name, idx); err != nil {
			t.Fatal(err)
		}
	}
	return a.Settings()
}

func TestBuildStack(t *testing.T) {
	st, err := BuildStack(testCluster(), defaultSettings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sim == nil || st.FS == nil || st.Mem == nil || st.Lib == nil {
		t.Fatal("incomplete stack")
	}
	if st.Lib.Nprocs() != 128 {
		t.Fatalf("nprocs = %d", st.Lib.Nprocs())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := ByName(name, 128)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name {
			t.Fatalf("Name() = %q, want %q", w.Name(), name)
		}
	}
	if _, err := ByName("nope", 128); err == nil {
		t.Fatal("unknown workload: want error")
	}
}

func TestAllWorkloadsRunAndReportBytes(t *testing.T) {
	c := testCluster()
	type sized interface {
		Workload
		TotalBytes() int64
	}
	for _, name := range []string{"vpic", "hacc", "flash", "macsio"} {
		w, _ := ByName(name, c.Procs())
		res, err := Execute(w, c, defaultSettings(), 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Runtime <= 0 || res.Perf <= 0 {
			t.Fatalf("%s: runtime %v perf %v", name, res.Runtime, res.Perf)
		}
		want := w.(sized).TotalBytes()
		if got := res.Report.App().BytesWritten; got != want {
			t.Fatalf("%s: wrote %d app bytes, want %d", name, got, want)
		}
		if res.Alpha != 1 {
			t.Fatalf("%s: write-only workload has alpha %v", name, res.Alpha)
		}
	}
}

func TestBDCATSIsReadDominated(t *testing.T) {
	c := testCluster()
	w := NewBDCATS(c.Procs())
	res, err := Execute(w, c, defaultSettings(), 42)
	if err != nil {
		t.Fatal(err)
	}
	app := res.Report.App()
	if app.BytesRead <= 0 {
		t.Fatal("BD-CATS read nothing")
	}
	// 6 vars read vs 7 dataset-writes (6 staged inputs + labels): the
	// analytics phase itself is read-dominated but staging writes count too.
	if app.BytesRead < 6*int64(c.Procs())*(1<<20)*8 {
		t.Fatalf("read bytes = %d", app.BytesRead)
	}
	if res.Alpha <= 0 || res.Alpha >= 1 {
		t.Fatalf("alpha = %v, want mixed read/write", res.Alpha)
	}
}

func TestTunedBeatsDefault(t *testing.T) {
	// The central premise of the paper: the untuned stack leaves large
	// performance on the table. Require >= 2x for the particle workloads.
	c := testCluster()
	for _, name := range []string{"vpic", "hacc", "flash"} {
		w, _ := ByName(name, c.Procs())
		def, err := Execute(w, c, defaultSettings(), 7)
		if err != nil {
			t.Fatal(err)
		}
		tun, err := Execute(w, c, tunedSettings(t), 7)
		if err != nil {
			t.Fatal(err)
		}
		if tun.Perf < 2*def.Perf {
			t.Fatalf("%s: tuned %.1f MB/s vs default %.1f MB/s, want >= 2x", name, tun.Perf, def.Perf)
		}
	}
}

func TestComputeAddsRuntimeNotPerf(t *testing.T) {
	c := testCluster()
	kernel := NewVPIC(c.Procs())
	full := NewVPIC(c.Procs())
	full.ComputeFlops = 3e10 // ~2s at 1.5e10 flop/s
	rk, err := Execute(kernel, c, defaultSettings(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Execute(full, c, defaultSettings(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Runtime <= rk.Runtime {
		t.Fatal("compute phase did not increase runtime")
	}
	// Perf measures I/O bandwidth only; compute must not change it much.
	if rel := (rf.Perf - rk.Perf) / rk.Perf; rel > 0.01 || rel < -0.01 {
		t.Fatalf("perf changed by %.2f%% due to compute", rel*100)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	c := cluster.CoriHaswell(4, 32)
	w := NewVPIC(c.Procs())
	a, _ := Execute(w, c, defaultSettings(), 11)
	b, _ := Execute(w, c, defaultSettings(), 11)
	if a.Runtime != b.Runtime || a.Perf != b.Perf {
		t.Fatal("same seed produced different results")
	}
	c2, _ := Execute(w, c, defaultSettings(), 12)
	if a.Runtime == c2.Runtime {
		t.Fatal("different seeds produced identical noisy results")
	}
}

func TestMemPathWorkload(t *testing.T) {
	c := testCluster()
	scratch := NewMACSio(c.Procs())
	shm := NewMACSio(c.Procs())
	shm.Path = "/dev/shm/macsio.h5"
	rs, err := Execute(scratch, c, defaultSettings(), 9)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Execute(shm, c, defaultSettings(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Runtime >= rs.Runtime {
		t.Fatalf("/dev/shm run (%.3fs) not faster than scratch (%.3fs)", rm.Runtime, rs.Runtime)
	}
}
