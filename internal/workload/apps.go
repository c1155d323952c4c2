package workload

import (
	"fmt"

	"tunio/internal/hdf5"
)

// VPIC models the VPIC-IO kernel: a particle-in-cell plasma simulation
// dump. Every rank appends its particles' properties to shared 1-D
// datasets, one per property (x, y, z, ux, uy, uz, i1, i2) — large
// contiguous per-rank blocks, the classic H5Part pattern.
type VPIC struct {
	Procs            int
	ParticlesPerRank int64
	Vars             int
	Steps            int
	// Segments models the H5Part-style interleaving of each rank's block:
	// the dataset is [Segments, procs*perSeg] and every rank writes a
	// strided column, so untuned independent I/O issues many medium
	// requests that collective buffering must coalesce.
	Segments     int64
	ComputeFlops float64 // per process per step; 0 for the I/O kernel
	Path         string
}

// NewVPIC returns a VPIC sized like the paper's component tests.
func NewVPIC(procs int) *VPIC {
	return &VPIC{
		Procs:            procs,
		ParticlesPerRank: 512 << 10, // 512Ki particles x 8B = 4 MiB per var per rank
		Vars:             8,
		Steps:            2,
		Segments:         16,
		ComputeFlops:     0,
		Path:             "/scratch/vpic.h5",
	}
}

// Name implements Workload.
func (v *VPIC) Name() string { return "vpic" }

// TotalBytes returns the bytes one run writes.
func (v *VPIC) TotalBytes() int64 {
	return int64(v.Vars) * int64(v.Steps) * int64(v.Procs) * v.ParticlesPerRank * 8
}

// Run implements Workload.
func (v *VPIC) Run(st *Stack) error {
	lib := st.Lib
	f, err := lib.CreateFile(v.Path)
	if err != nil {
		return err
	}
	names := []string{"x", "y", "z", "ux", "uy", "uz", "i1", "i2", "q", "w"}
	dims, slabs := segmented(v.Procs, v.ParticlesPerRank, v.Segments)
	for step := 0; step < v.Steps; step++ {
		if v.ComputeFlops > 0 {
			st.Lib.Compute(v.ComputeFlops)
		}
		for vi := 0; vi < v.Vars; vi++ {
			space, err := hdf5.NewSpace(dims, 8)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("step%d/%s", step, names[vi%len(names)])
			ds, err := f.CreateDataset(name, space, nil)
			if err != nil {
				return err
			}
			if _, err := ds.Write(slabs); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

// HACC models the HACC-IO kernel: cosmology particles, nine properties per
// particle (xx, yy, zz, vx, vy, vz, phi, pid, mask) written as contiguous
// per-rank blocks into shared 1-D datasets.
type HACC struct {
	Procs            int
	ParticlesPerRank int64
	Steps            int
	Segments         int64 // per-rank block interleaving (see VPIC)
	ComputeFlops     float64
	Path             string
}

// NewHACC returns a HACC sized like the paper's component tests.
func NewHACC(procs int) *HACC {
	return &HACC{
		Procs:            procs,
		ParticlesPerRank: 512 << 10,
		Steps:            2,
		Segments:         16,
		ComputeFlops:     0,
		Path:             "/scratch/hacc.h5",
	}
}

// Name implements Workload.
func (h *HACC) Name() string { return "hacc" }

// TotalBytes returns the bytes one run writes.
func (h *HACC) TotalBytes() int64 {
	return 9 * int64(h.Steps) * int64(h.Procs) * h.ParticlesPerRank * 8
}

// Run implements Workload.
func (h *HACC) Run(st *Stack) error {
	f, err := st.Lib.CreateFile(h.Path)
	if err != nil {
		return err
	}
	names := []string{"xx", "yy", "zz", "vx", "vy", "vz", "phi", "pid", "mask"}
	dims, slabs := segmented(h.Procs, h.ParticlesPerRank, h.Segments)
	for step := 0; step < h.Steps; step++ {
		if h.ComputeFlops > 0 {
			st.Lib.Compute(h.ComputeFlops)
		}
		for _, n := range names {
			space, err := hdf5.NewSpace(dims, 8)
			if err != nil {
				return err
			}
			ds, err := f.CreateDataset(fmt.Sprintf("step%d/%s", step, n), space, nil)
			if err != nil {
				return err
			}
			if _, err := ds.Write(slabs); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

// FLASH models the FLASH-IO checkpoint benchmark: an AMR code writing a
// 4-D dataset [blocks, nxb, nyb, nzb] per unknown variable; each rank owns
// a contiguous range of blocks. Chunked layout (one chunk per block row)
// produces the chunk/stripe interactions the paper's HDF5 parameters tune.
type FLASH struct {
	Procs         int
	BlocksPerRank int64
	NXB, NYB, NZB int64
	Unknowns      int
	Steps         int
	ComputeFlops  float64
	Path          string
}

// NewFLASH returns a FLASH sized like the paper's component tests.
func NewFLASH(procs int) *FLASH {
	return &FLASH{
		Procs:         procs,
		BlocksPerRank: 64,
		NXB:           16, NYB: 16, NZB: 16,
		Unknowns:     10,
		Steps:        1,
		ComputeFlops: 0,
		Path:         "/scratch/flash.h5",
	}
}

// Name implements Workload.
func (fl *FLASH) Name() string { return "flash" }

// TotalBytes returns the bytes one checkpoint writes.
func (fl *FLASH) TotalBytes() int64 {
	return int64(fl.Unknowns) * int64(fl.Steps) * int64(fl.Procs) * fl.BlocksPerRank * fl.NXB * fl.NYB * fl.NZB * 8
}

// Run implements Workload.
func (fl *FLASH) Run(st *Stack) error {
	f, err := st.Lib.CreateFile(fl.Path)
	if err != nil {
		return err
	}
	totalBlocks := int64(fl.Procs) * fl.BlocksPerRank
	for step := 0; step < fl.Steps; step++ {
		if fl.ComputeFlops > 0 {
			st.Lib.Compute(fl.ComputeFlops)
		}
		for u := 0; u < fl.Unknowns; u++ {
			space, err := hdf5.NewSpace([]int64{totalBlocks, fl.NXB, fl.NYB, fl.NZB}, 8)
			if err != nil {
				return err
			}
			// one chunk per 8 blocks: rank slabs partially cover chunks,
			// exercising the chunk cache and alignment parameters
			chunk := []int64{8, fl.NXB, fl.NYB, fl.NZB}
			ds, err := f.CreateDataset(fmt.Sprintf("step%d/unk%02d", step, u), space, chunk)
			if err != nil {
				return err
			}
			slabs := make([]hdf5.Slab, fl.Procs)
			for r := 0; r < fl.Procs; r++ {
				slabs[r] = hdf5.Slab{
					Rank:  r,
					Start: []int64{int64(r) * fl.BlocksPerRank, 0, 0, 0},
					Count: []int64{fl.BlocksPerRank, fl.NXB, fl.NYB, fl.NZB},
				}
			}
			if _, err := ds.Write(slabs); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

// BDCATS models the BD-CATS clustering pipeline: a read-dominated
// analytics job that loads particle datasets written by a VPIC-style dump
// and writes back cluster assignments. The paper's end-to-end evaluation
// tunes BD-CATS at 500 nodes.
type BDCATS struct {
	Procs            int
	ParticlesPerRank int64
	Vars             int
	Segments         int64 // interleaving of the staged VPIC-style input
	ComputeFlops     float64
	InPath, OutPath  string
}

// NewBDCATS returns a BD-CATS sized like the paper's end-to-end test.
func NewBDCATS(procs int) *BDCATS {
	return &BDCATS{
		Procs:            procs,
		ParticlesPerRank: 1 << 20,
		Vars:             6, // x, y, z, ux, uy, uz read for clustering
		Segments:         16,
		ComputeFlops:     0,
		InPath:           "/scratch/vpic-input.h5",
		OutPath:          "/scratch/bdcats-out.h5",
	}
}

// Name implements Workload.
func (b *BDCATS) Name() string { return "bdcats" }

// TotalBytes returns read+written bytes of one run.
func (b *BDCATS) TotalBytes() int64 {
	per := int64(b.Procs) * b.ParticlesPerRank * 8
	return int64(b.Vars)*per + per // reads + label writes
}

// Run implements Workload.
func (b *BDCATS) Run(st *Stack) error {
	lib := st.Lib
	total := int64(b.Procs) * b.ParticlesPerRank
	dims, slabs := segmented(b.Procs, b.ParticlesPerRank, b.Segments)

	// Stage the input dump (written once by the producer; simulated here so
	// the file exists, charged to a separate pre-phase not counted in perf).
	in, err := lib.CreateFile(b.InPath)
	if err != nil {
		return err
	}
	var inSets []*hdf5.Dataset
	for v := 0; v < b.Vars; v++ {
		space, err := hdf5.NewSpace(dims, 8)
		if err != nil {
			return err
		}
		ds, err := in.CreateDataset(fmt.Sprintf("v%d", v), space, nil)
		if err != nil {
			return err
		}
		if _, err := ds.Write(slabs); err != nil {
			return err
		}
		inSets = append(inSets, ds)
	}

	// Analytics phase: read all properties, cluster, write labels.
	for _, ds := range inSets {
		if _, err := ds.Read(slabs); err != nil {
			return err
		}
	}
	if b.ComputeFlops > 0 {
		st.Lib.Compute(b.ComputeFlops)
	}
	out, err := lib.CreateFile(b.OutPath)
	if err != nil {
		return err
	}
	space, err := hdf5.NewSpace([]int64{total}, 8)
	if err != nil {
		return err
	}
	labels, err := out.CreateDataset("cluster_id", space, nil)
	if err != nil {
		return err
	}
	if _, err := labels.Write(collectSlabs1D(b.Procs, b.ParticlesPerRank)); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	return in.Close()
}

// MACSio models the MACSio multi-purpose, application-centric I/O proxy:
// a workload generator with configurable parts per rank, bytes per part,
// dump count, and compute-to-I/O ratio. The paper's Figure 8 experiments
// run MACSio with the compute ratio baselined on VPIC's Dipole
// configuration.
type MACSio struct {
	Procs        int
	PartsPerRank int64
	PartBytes    int64
	Dumps        int
	ComputeFlops float64 // per process per dump
	Path         string
}

// NewMACSio returns a MACSio configuration matching Figure 8's setup: the
// compute phase is sized so compute is roughly 1/6 of untuned runtime (the
// VPIC Dipole compute-to-I/O ratio the paper baselines against).
func NewMACSio(procs int) *MACSio {
	return &MACSio{
		Procs:        procs,
		PartsPerRank: 4,
		PartBytes:    4 << 20,
		Dumps:        25,
		ComputeFlops: 6e9,
		Path:         "/scratch/macsio.h5",
	}
}

// Name implements Workload.
func (m *MACSio) Name() string { return "macsio" }

// TotalBytes returns the bytes all dumps write.
func (m *MACSio) TotalBytes() int64 {
	return int64(m.Dumps) * int64(m.Procs) * m.PartsPerRank * m.PartBytes
}

// Run implements Workload.
func (m *MACSio) Run(st *Stack) error {
	f, err := st.Lib.CreateFile(m.Path)
	if err != nil {
		return err
	}
	perRank := m.PartsPerRank * m.PartBytes / 8 // elements of 8 bytes
	dims, slabs := segmented(m.Procs, perRank, m.PartsPerRank)
	for dump := 0; dump < m.Dumps; dump++ {
		if m.ComputeFlops > 0 {
			st.Lib.Compute(m.ComputeFlops)
		}
		space, err := hdf5.NewSpace(dims, 8)
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset(fmt.Sprintf("dump%03d", dump), space, nil)
		if err != nil {
			return err
		}
		if _, err := ds.Write(slabs); err != nil {
			return err
		}
	}
	return f.Close()
}
