package workload

import (
	"testing"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
)

// TestCSourceConformance asserts each workload's C-source form, executed
// by the SPMD interpreter, emits the same application-level I/O footprint
// as the native Go form and scores the same, bit for bit: to the tuner a
// named workload and its own source are one kernel. (The simulated clock
// legitimately differs — the C forms call MPI_Init/MPI_Finalize.)
func TestCSourceConformance(t *testing.T) {
	quiet := testCluster()
	noisy := testCluster()
	noisy.Noise = cluster.CoriHaswell(4, 32).Noise
	settings := defaultSettings()

	shrink := func(w Workload) {
		switch x := w.(type) {
		case *VPIC:
			x.ParticlesPerRank = 16 << 10
			x.ComputeFlops = 1e9
		case *HACC:
			x.ParticlesPerRank = 16 << 10
		case *FLASH:
			x.BlocksPerRank = 8
			x.Unknowns = 3
		case *BDCATS:
			x.ParticlesPerRank = 16 << 10
		case *MACSio:
			x.PartsPerRank = 2
			x.PartBytes = 256 << 10
			x.Dumps = 3
		}
	}

	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := ByName(name, quiet.Procs())
		if err != nil {
			t.Fatal(err)
		}
		shrink(w)
		cw, ok := w.(HasCSource)
		if !ok {
			t.Fatalf("%s has no C source form", name)
		}
		prog, err := csrc.Parse(cw.CSource())
		if err != nil {
			t.Fatalf("%s C source does not parse: %v", name, err)
		}
		// bothForms runs the native Go form and the interpreted C form on
		// identically seeded stacks.
		bothForms := func(c *cluster.Cluster) (RunResult, *Stack) {
			native, err := Execute(w, c, settings, 99)
			if err != nil {
				t.Fatalf("%s native: %v", name, err)
			}
			st, err := BuildStack(c, settings, 99)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cinterp.Run(prog, st.Lib); err != nil {
				t.Fatalf("%s C form failed: %v", name, err)
			}
			return native, st
		}

		native, st := bothForms(quiet)
		nApp := native.Report.App()
		cApp := st.Sim.Report.App()
		if nApp.BytesWritten != cApp.BytesWritten {
			t.Errorf("%s: C form wrote %d bytes, native %d", name, cApp.BytesWritten, nApp.BytesWritten)
		}
		if nApp.BytesRead != cApp.BytesRead {
			t.Errorf("%s: C form read %d bytes, native %d", name, cApp.BytesRead, nApp.BytesRead)
		}
		if nApp.WriteOps != cApp.WriteOps {
			t.Errorf("%s: C form %d write ops, native %d", name, cApp.WriteOps, nApp.WriteOps)
		}
		if perf, _ := Perf(st.Sim.Report); perf != native.Perf {
			t.Errorf("%s: C form scores %v MB/s, native %v", name, perf, native.Perf)
		}

		// With noise on, equal scores also need the two forms to draw from
		// the noise stream in the same order. BDCATS.CSource re-opens each
		// input dataset where BDCATS.Run reuses the handle — one extra
		// metadata-miss draw per H5Dopen — so its forms differ under noise
		// (ROADMAP item 4); closing that gap moves bdcats' figures.
		if name == "bdcats" {
			continue
		}
		native, st = bothForms(noisy)
		if perf, _ := Perf(st.Sim.Report); perf != native.Perf {
			t.Errorf("%s: under noise C form scores %v MB/s, native %v", name, perf, native.Perf)
		}
	}
}
