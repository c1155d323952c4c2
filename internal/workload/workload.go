// Package workload provides the application models TunIO's evaluation
// tunes: VPIC-IO, HACC-IO, FLASH-IO, BD-CATS, and the MACSio workload
// generator. Each drives the simulated HDF5/MPI-IO/Lustre stack with the
// I/O pattern of the real application (particle dumps, AMR checkpoints,
// analytics read phases) plus configurable compute phases for the full-
// application (non-kernel) forms.
//
// The same applications also exist as embedded C sources (csource.go) for
// the Application I/O Discovery pipeline; a conformance test asserts both
// forms emit the same I/O footprint.
package workload

import (
	"fmt"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/hdf5"
	"tunio/internal/lustre"
	"tunio/internal/params"
	"tunio/internal/posixio"
)

// Stack is a fully constructed simulated I/O stack for one run.
type Stack struct {
	Sim *cluster.Sim
	FS  *lustre.FS
	Mem *posixio.MemFS
	Lib *hdf5.Library

	// lb is the lustre backend behind Lib's resolver, kept so pooled
	// resets can restripe it in place instead of rebuilding the wiring.
	lb *lustre.Backend
}

// BuildStack wires cluster -> lustre/mem -> mpiio -> hdf5 for the given
// parameter settings. Each run gets a fresh stack (fresh clock, counters,
// and noise stream).
func BuildStack(c *cluster.Cluster, s params.StackSettings, seed int64) (*Stack, error) {
	sim, err := cluster.NewSim(c, seed)
	if err != nil {
		return nil, err
	}
	fs, err := lustre.New(lustre.CoriScratch(), sim)
	if err != nil {
		return nil, err
	}
	st := &Stack{Sim: sim, FS: fs, Mem: posixio.NewMemFS(sim)}
	if err := st.rewire(s); err != nil {
		return nil, err
	}
	return st, nil
}

// Workload is a runnable application model.
type Workload interface {
	Name() string
	Run(st *Stack) error
}

// RunResult summarizes one execution.
type RunResult struct {
	// Runtime is the simulated wall time of the run in seconds.
	Runtime float64
	// Perf is the paper's tuning objective in MB/s:
	// (1-alpha)*BW_r + alpha*BW_w with alpha the written-byte fraction.
	Perf float64
	// Alpha is the written fraction of transferred bytes.
	Alpha float64
	// Report is the run's darshan report.
	Report *darshan.Report
}

// Perf computes the paper's objective from a report, in MB/s.
func Perf(r *darshan.Report) (perf, alpha float64) {
	alpha = r.WriteRatio()
	bw := (1-alpha)*r.ReadBandwidth() + alpha*r.WriteBandwidth()
	return bw / 1e6, alpha
}

// Execute builds a fresh stack, runs the workload, and summarizes it.
func Execute(w Workload, c *cluster.Cluster, s params.StackSettings, seed int64) (RunResult, error) {
	st, err := BuildStack(c, s, seed)
	if err != nil {
		return RunResult{}, err
	}
	if err := w.Run(st); err != nil {
		return RunResult{}, fmt.Errorf("workload %s: %w", w.Name(), err)
	}
	perf, alpha := Perf(st.Sim.Report)
	return RunResult{
		Runtime: st.Sim.Now(),
		Perf:    perf,
		Alpha:   alpha,
		Report:  st.Sim.Report,
	}, nil
}

// ByName returns a workload with default sizing for the cluster, or an
// error for unknown names. Valid names: vpic, hacc, flash, bdcats, macsio,
// ior.
func ByName(name string, procs int) (Workload, error) {
	switch name {
	case "vpic":
		return NewVPIC(procs), nil
	case "hacc":
		return NewHACC(procs), nil
	case "flash":
		return NewFLASH(procs), nil
	case "bdcats":
		return NewBDCATS(procs), nil
	case "macsio":
		return NewMACSio(procs), nil
	case "ior":
		return NewIOR(procs), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}

// collectSlabs1D builds the per-rank contiguous slabs of a 1-D dataset
// partitioned evenly across nprocs ranks.
func collectSlabs1D(nprocs int, perRank int64) []hdf5.Slab {
	slabs := make([]hdf5.Slab, nprocs)
	for r := 0; r < nprocs; r++ {
		slabs[r] = hdf5.Slab{
			Rank:  r,
			Start: []int64{int64(r) * perRank},
			Count: []int64{perRank},
		}
	}
	return slabs
}

// segmented builds the [segments, procs*perSeg] dataspace dims and the
// per-rank strided column slabs modeling interleaved per-rank blocks
// (H5Part/MACSio part layout). segments is clamped to a divisor of
// perRank so every segment is equal-sized.
func segmented(nprocs int, perRank, segments int64) ([]int64, []hdf5.Slab) {
	if segments < 1 {
		segments = 1
	}
	if segments > perRank {
		segments = perRank
	}
	for perRank%segments != 0 {
		segments--
	}
	perSeg := perRank / segments
	dims := []int64{segments, int64(nprocs) * perSeg}
	slabs := make([]hdf5.Slab, nprocs)
	for r := 0; r < nprocs; r++ {
		slabs[r] = hdf5.Slab{
			Rank:  r,
			Start: []int64{0, int64(r) * perSeg},
			Count: []int64{segments, perSeg},
		}
	}
	return dims, slabs
}
