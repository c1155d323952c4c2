package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var smoke = Config{Scale: Smoke, Seed: 7}

// fig11Smoke computes Fig11(smoke) once for the two tests that read it:
// Figure 12 is derived from Figure 11's runs, not from runs of its own.
var fig11Smoke = sync.OnceValues(func() (*Fig11Result, error) { return Fig11(smoke) })

func TestFig01(t *testing.T) {
	r := Fig01(smoke)
	if len(r.Libraries) != 6 {
		t.Fatalf("libraries = %d", len(r.Libraries))
	}
	if r.EvalSpace <= 2_180_000_000 {
		t.Fatalf("eval space %d too small", r.EvalSpace)
	}
	// paper: HDF5+MPI on the order of 1e21
	if lg := math.Log10(r.HDF5MPIStack); lg < 20 || lg > 23 {
		t.Fatalf("HDF5+MPI permutations = %g", r.HDF5MPIStack)
	}
	if !strings.Contains(r.String(), "HDF5") {
		t.Fatal("render missing content")
	}
}

func TestFig02LogShape(t *testing.T) {
	r, err := Fig02(smoke)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hacc", "flash", "vpic"} {
		c, ok := r.Curves[name]
		if !ok {
			t.Fatalf("missing curve %s", name)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Speedup() < 1.5 {
			t.Fatalf("%s: tuning speedup %.2fx too small", name, c.Speedup())
		}
		if !LogShaped(c) {
			t.Errorf("%s: curve is not log-shaped (first-half gains should dominate)", name)
		}
	}
	_ = r.String()
}

func TestFig05(t *testing.T) {
	r, err := Fig05(smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MarkedLines) == 0 || r.TotalLines == 0 {
		t.Fatal("no marking data")
	}
	frac := float64(len(r.MarkedLines)) / float64(r.TotalLines)
	if frac >= 0.95 {
		t.Fatalf("marking kept %.0f%% of lines; no reduction", frac*100)
	}
	if !strings.Contains(r.Kernel, "H5Dwrite") {
		t.Fatal("kernel lost its I/O")
	}
	_ = r.String()
}

func TestFig08Shapes(t *testing.T) {
	r, err := Fig08(smoke)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: kernel RoTI > full-app RoTI; loop reduction >> both.
	if r.Kernel.PeakRoTI <= r.FullApp.PeakRoTI {
		t.Errorf("kernel peak RoTI %.2f not above full app %.2f", r.Kernel.PeakRoTI, r.FullApp.PeakRoTI)
	}
	if r.Reduced.PeakRoTI <= 2*r.FullApp.PeakRoTI {
		t.Errorf("loop reduction peak RoTI %.2f not >2x full app %.2f (paper: >9x)",
			r.Reduced.PeakRoTI, r.FullApp.PeakRoTI)
	}
	if r.Kernel.TotalMin >= r.FullApp.TotalMin {
		t.Errorf("kernel tuning time %.1f not below full app %.1f", r.Kernel.TotalMin, r.FullApp.TotalMin)
	}
	_ = r.String()
}

func TestFig08cSimilarity(t *testing.T) {
	r, err := Fig08c(smoke)
	if err != nil {
		t.Fatal(err)
	}
	// bytes written: both kernels should be within a few percent
	if r.BytesErrKernel > 1 {
		t.Errorf("kernel bytes error %.3f%% (paper: 0.0002%%)", r.BytesErrKernel)
	}
	if r.BytesErrReduced > 5 {
		t.Errorf("reduced bytes error %.3f%% (paper: 0.19%%)", r.BytesErrReduced)
	}
	// op counts may deviate more (paper: 19.05% / 4.87%)
	if r.OpsErrKernel > 30 || r.OpsErrReduced > 30 {
		t.Errorf("ops errors %.1f%% / %.1f%% too large", r.OpsErrKernel, r.OpsErrReduced)
	}
	_ = r.String()
}

func TestSliceBenchSingleWorkload(t *testing.T) {
	r, err := sliceBench(smoke, []string{"vpic"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	for _, v := range []struct {
		name string
		sv   SliceVariant
	}{{"precise", row.Precise}, {"heuristic", row.Heuristic}} {
		if !v.sv.ReplayIdentical {
			t.Errorf("%s kernel does not replay the application's I/O stream", v.name)
		}
		if v.sv.KernelLines == 0 || v.sv.TotalLines == 0 {
			t.Errorf("%s: missing kernel size data", v.name)
		}
		if v.sv.FinalPerf <= 0 || v.sv.PeakRoTI <= 0 {
			t.Errorf("%s: tuning produced no improvement data", v.name)
		}
	}
	// The promotion premise: the precise kernel is no larger than the
	// heuristic one while staying replay-identical.
	if row.Precise.KernelLines > row.Heuristic.KernelLines {
		t.Errorf("precise kernel (%d lines) larger than heuristic (%d)",
			row.Precise.KernelLines, row.Heuristic.KernelLines)
	}
	_ = r.String()
}

func TestFig09ImpactFirst(t *testing.T) {
	r, err := Fig09(smoke)
	if err != nil {
		t.Fatal(err)
	}
	if r.IterWith < 0 {
		t.Fatal("impact-first run never reached the target")
	}
	if r.IterWithout >= 0 && r.IterWith > r.IterWithout {
		t.Errorf("impact-first took %d iterations vs %d without (paper: 6 vs 43)",
			r.IterWith, r.IterWithout)
	}
	if n := len(r.ChangedParams); n == 0 || n == 12 {
		t.Errorf("changed parameters = %d, want a proper subset (paper: 7)", n)
	}
	_ = r.String()
}

func TestFig10StoppingPolicies(t *testing.T) {
	r, err := Fig10(smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 4 {
		t.Fatalf("policies = %d", len(r.Policies))
	}
	tun := r.Policy("TunIO RL stopping")
	heur := r.Policy("Heuristic (5%/5 iters)")
	if tun.Name == "" || heur.Name == "" {
		t.Fatal("policy rows missing")
	}
	// Paper shape: TunIO captures a high share of the best RoTI...
	if tun.PctOfBest < 50 {
		t.Errorf("TunIO RoTI share %.1f%% (paper: 90.5%%)", tun.PctOfBest)
	}
	// ...and at least matches the heuristic's captured bandwidth.
	if tun.Bandwidth < heur.Bandwidth {
		t.Errorf("TunIO stopped at %s below heuristic %s (paper: 2.2 vs 1.2 GB/s)",
			fmtMBs(tun.Bandwidth), fmtMBs(heur.Bandwidth))
	}
	if r.SpeedupAtTunIOStop < 2 {
		t.Errorf("speedup at stop %.1fx (paper: ~4x)", r.SpeedupAtTunIOStop)
	}
	_ = r.String()
}

func TestFig11EndToEnd(t *testing.T) {
	r, err := fig11Smoke()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 6 {
		t.Fatalf("variants = %d", len(r.Variants))
	}
	noStop := r.Variant("HSTuner, no stop")
	tun := r.Variant("TunIO")
	tunK := r.Variant("TunIO + I/O kernel")
	if noStop == nil || tun == nil || tunK == nil {
		t.Fatal("variant rows missing")
	}
	// Paper shapes: TunIO stops well before the full budget and spends
	// less tuning time than no-stop...
	if r.TimeReductionPct < 15 {
		t.Errorf("time reduction %.0f%% (paper: ~73%%; simulated evaluations get cheaper as configs improve, so expect less)", r.TimeReductionPct)
	}
	if r.IterationReductionPct < 30 {
		t.Errorf("iteration reduction %.0f%% (paper: ~73%%)", r.IterationReductionPct)
	}
	// ...while reaching comparable bandwidth (>= 80% of the full search).
	if tun.BestPerf < 0.8*noStop.BestPerf {
		t.Errorf("TunIO bandwidth %s below 80%% of no-stop %s",
			fmtMBs(tun.BestPerf), fmtMBs(noStop.BestPerf))
	}
	// RoTI ordering: TunIO beats the heuristic baseline; kernel helps.
	if r.RoTIGain <= 0 {
		t.Errorf("TunIO RoTI gain %.1f not positive (paper: 173.4)", r.RoTIGain)
	}
	kNoStop := r.Variant("HSTuner + I/O kernel, no stop")
	if kNoStop.Minutes >= noStop.Minutes {
		t.Errorf("kernel evaluation (%.1f min) not cheaper than full app (%.1f min)", kNoStop.Minutes, noStop.Minutes)
	}
	_ = r.String()
}

func TestFig12Lifecycle(t *testing.T) {
	fig11, err := fig11Smoke()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig12(smoke, fig11)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(r.ViabilityTunIO, 1) {
		t.Fatal("TunIO tuning never becomes viable")
	}
	// Paper shape: TunIO's viability point comes earlier than HSTuner's.
	if !math.IsInf(r.ViabilityHSTuner, 1) && r.ViabilityTunIO >= r.ViabilityHSTuner {
		t.Errorf("viability %0.f not before HSTuner %0.f (paper: 1394 vs 5274)",
			r.ViabilityTunIO, r.ViabilityHSTuner)
	}
	_ = r.String()
}
