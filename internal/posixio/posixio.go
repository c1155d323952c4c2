// Package posixio provides the memory-backed storage target used by TunIO's
// I/O path switching optimization: when the Application I/O Discovery
// component rewrites file paths to point at /dev/shm, I/O lands here
// instead of the simulated Lustre scratch, trading tuning fidelity for much
// cheaper objective evaluations (§III-B of the paper).
//
// The model is deliberately simple: per-node memory bandwidth with a tiny
// per-operation latency, no striping, no RMW, and near-free metadata. It
// also serves as the "fast but wrong to tune against" storage contrast in
// the path-switching experiments.
package posixio

import (
	"fmt"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/ioreq"
)

// MemFS is a /dev/shm-like in-memory file target.
type MemFS struct {
	sim   *cluster.Sim
	opLat float64
	files map[string]int64 // name -> size high-water mark
}

var _ ioreq.Backend = (*MemFS)(nil)

// NewMemFS returns a memory file system over the simulation.
func NewMemFS(sim *cluster.Sim) *MemFS {
	return &MemFS{sim: sim, opLat: 1e-6, files: make(map[string]int64)}
}

// Name implements ioreq.Backend.
func (m *MemFS) Name() string { return "mem" }

// IsMemPath reports whether a file path targets the memory backend (the
// discovery component's path switching prepends /dev/shm).
func IsMemPath(path string) bool {
	return len(path) >= 8 && path[:8] == "/dev/shm"
}

func (m *MemFS) phase(name string, extents []ioreq.Extent, isWrite bool) float64 {
	if len(extents) == 0 {
		return 0
	}
	perNode := make(map[int]int64)
	ppn := m.sim.Cluster.ProcsPerNode
	var total int64
	var ops int64
	for _, e := range extents {
		if err := e.Validate(); err != nil {
			panic(fmt.Sprintf("posixio: %v", err))
		}
		perNode[e.Rank/ppn] += e.Size
		total += e.Size
		ops += e.Requests()
		if isWrite {
			if end := e.End(); end > m.files[name] {
				m.files[name] = end
			}
		}
	}
	worst := 0.0
	for _, b := range perNode {
		t := float64(b) / m.sim.Cluster.MemBandwidth
		if t > worst {
			worst = t
		}
	}
	elapsed := worst + float64(ops)*m.opLat
	elapsed = m.sim.Perturb(elapsed)
	m.sim.Advance(elapsed)
	lc := m.sim.Report.At(darshan.Mem)
	if isWrite {
		lc.WriteOps += int64(ops)
		lc.BytesWritten += total
		lc.WriteTime += elapsed
	} else {
		lc.ReadOps += int64(ops)
		lc.BytesRead += total
		lc.ReadTime += elapsed
	}
	return elapsed
}

// WritePhase implements ioreq.Backend.
func (m *MemFS) WritePhase(name string, extents []ioreq.Extent) float64 {
	return m.phase(name, extents, true)
}

// ReadPhase implements ioreq.Backend.
func (m *MemFS) ReadPhase(name string, extents []ioreq.Extent) float64 {
	return m.phase(name, extents, false)
}

// MetaOps implements ioreq.Backend: in-memory metadata is near free.
func (m *MemFS) MetaOps(n, nclients int) float64 {
	if n <= 0 {
		return 0
	}
	d := float64(n) * m.opLat
	m.sim.Advance(d)
	m.sim.Report.At(darshan.Mem).AddMeta(int64(n), d)
	return d
}

// Size returns a file's high-water mark (0 if never written).
func (m *MemFS) Size(name string) int64 { return m.files[name] }
