// Package params defines the tunable-parameter space of the simulated I/O
// stack: the 12 parameters across HDF5, MPI-IO, and Lustre that the paper's
// evaluation tunes (§IV: "we tune a subset of 12 parameters across HDF5,
// MPI, and Lustre, which gives a search space of over 2.18 billion
// permutations"), plus the library catalog behind Figure 1's permutation
// counts.
//
// A parameter assignment maps one-to-one onto a GA genome (one gene per
// parameter, each gene indexing the parameter's discrete value list) and
// onto a normalized feature vector for the RL agents.
package params

import (
	"fmt"

	"tunio/internal/hdf5"
	"tunio/internal/mpiio"
)

// Layer identifies which stack layer a parameter configures.
type Layer string

// Stack layers.
const (
	LayerHDF5   Layer = "hdf5"
	LayerMPI    Layer = "mpi"
	LayerLustre Layer = "lustre"
)

// Parameter is one tunable knob with its discrete value list.
type Parameter struct {
	Name    string
	Layer   Layer
	Values  []int64 // raw values (bytes, counts, enum codes, or 0/1 flags)
	Default int     // index into Values of the untuned default
}

// Canonical parameter names.
const (
	SieveBufSize      = "sieve_buf_size"
	ChunkCache        = "chunk_cache"
	Alignment         = "alignment"
	MetaBlockSize     = "meta_block_size"
	CollMetadataOps   = "colmeta_ops"
	MDCConfig         = "mdc_conf"
	CollMetadataWrite = "coll_metadata_write"
	StripingFactor    = "striping_factor"
	StripingUnit      = "striping_unit"
	CBNodes           = "cb_nodes"
	CBBufferSize      = "cb_buffer_size"
	CollectiveWrite   = "romio_cb_write"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// Space returns the 12-parameter tuning space. The value lists multiply to
// about 2.52e9 permutations, matching the paper's ">2.18 billion".
func Space() []Parameter {
	return []Parameter{
		{Name: SieveBufSize, Layer: LayerHDF5, Default: 0,
			Values: []int64{64 * kib, 128 * kib, 256 * kib, 512 * kib, 1 * mib, 2 * mib, 4 * mib, 8 * mib}},
		{Name: ChunkCache, Layer: LayerHDF5, Default: 0,
			Values: []int64{1 * mib, 2 * mib, 4 * mib, 8 * mib, 16 * mib, 32 * mib, 64 * mib, 128 * mib, 256 * mib, 512 * mib}},
		{Name: Alignment, Layer: LayerHDF5, Default: 0,
			Values: []int64{1, 64 * kib, 256 * kib, 512 * kib, 1 * mib, 4 * mib, 8 * mib, 16 * mib}},
		{Name: MetaBlockSize, Layer: LayerHDF5, Default: 0,
			Values: []int64{2 * kib, 4 * kib, 8 * kib, 16 * kib, 32 * kib, 64 * kib, 128 * kib, 256 * kib}},
		{Name: CollMetadataOps, Layer: LayerHDF5, Default: 0, Values: []int64{0, 1}},
		{Name: MDCConfig, Layer: LayerHDF5, Default: 1,
			Values: []int64{int64(hdf5.MDCMinimal), int64(hdf5.MDCDefault), int64(hdf5.MDCLarge), int64(hdf5.MDCAggressive)}},
		{Name: CollMetadataWrite, Layer: LayerHDF5, Default: 0, Values: []int64{0, 1}},
		{Name: StripingFactor, Layer: LayerLustre, Default: 0,
			Values: []int64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 248}},
		{Name: StripingUnit, Layer: LayerLustre, Default: 4,
			Values: []int64{64 * kib, 128 * kib, 256 * kib, 512 * kib, 1 * mib, 2 * mib, 4 * mib, 8 * mib, 16 * mib, 32 * mib, 64 * mib, 128 * mib}},
		{Name: CBNodes, Layer: LayerMPI, Default: 0,
			Values: []int64{1, 2, 4, 8, 16, 32, 64, 128}},
		{Name: CBBufferSize, Layer: LayerMPI, Default: 4,
			Values: []int64{1 * mib, 2 * mib, 4 * mib, 8 * mib, 16 * mib, 32 * mib, 64 * mib, 128 * mib, 256 * mib, 512 * mib}},
		{Name: CollectiveWrite, Layer: LayerMPI, Default: 0, Values: []int64{0, 1}},
	}
}

// TotalPermutations returns the product of value-list cardinalities.
func TotalPermutations(space []Parameter) uint64 {
	total := uint64(1)
	for _, p := range space {
		total *= uint64(len(p.Values))
	}
	return total
}

// Index returns the position of the named parameter in the space, or -1.
// It compares in place: ranging by value copies each 64-byte Parameter to
// the stack, and at an unlucky stack alignment that copy straddles a cache
// line and stalls the load of the name behind it (10 % of a small job).
func Index(space []Parameter, name string) int {
	for i := range space {
		if space[i].Name == name {
			return i
		}
	}
	return -1
}

// Assignment is a concrete choice of one value per parameter, represented
// as value indices (directly usable as a GA genome).
type Assignment struct {
	space []Parameter
	idx   []int
}

// DefaultAssignment returns the untuned configuration.
func DefaultAssignment(space []Parameter) *Assignment {
	a := &Assignment{space: space, idx: make([]int, len(space))}
	for i, p := range space {
		a.idx[i] = p.Default
	}
	return a
}

// FromGenome builds an assignment from a genome of value indices.
func FromGenome(space []Parameter, genome []int) (*Assignment, error) {
	if len(genome) != len(space) {
		return nil, fmt.Errorf("params: genome length %d, want %d", len(genome), len(space))
	}
	a := &Assignment{space: space, idx: make([]int, len(space))}
	for i, g := range genome {
		if g < 0 || g >= len(space[i].Values) {
			return nil, fmt.Errorf("params: gene %d = %d out of range %d (%s)", i, g, len(space[i].Values), space[i].Name)
		}
		a.idx[i] = g
	}
	return a, nil
}

// Genome returns a copy of the value indices.
func (a *Assignment) Genome() []int {
	return append([]int(nil), a.idx...)
}

// Space returns the parameter space the assignment is over.
func (a *Assignment) Space() []Parameter { return a.space }

// Value returns the raw value of the named parameter.
func (a *Assignment) Value(name string) int64 {
	i := Index(a.space, name)
	if i < 0 {
		panic(fmt.Sprintf("params: unknown parameter %q", name))
	}
	return a.space[i].Values[a.idx[i]]
}

// SetIndex sets the value index of the named parameter.
func (a *Assignment) SetIndex(name string, idx int) error {
	i := Index(a.space, name)
	if i < 0 {
		return fmt.Errorf("params: unknown parameter %q", name)
	}
	if idx < 0 || idx >= len(a.space[i].Values) {
		return fmt.Errorf("params: %s index %d out of range %d", name, idx, len(a.space[i].Values))
	}
	a.idx[i] = idx
	return nil
}

// Features encodes the assignment as a vector in [0,1]^n (value index
// normalized by cardinality), the representation the RL agents consume.
func (a *Assignment) Features() []float64 {
	out := make([]float64, len(a.idx))
	for i, g := range a.idx {
		n := len(a.space[i].Values)
		if n > 1 {
			out[i] = float64(g) / float64(n-1)
		}
	}
	return out
}

// ChangedFromDefault returns the names of parameters not at their default.
func (a *Assignment) ChangedFromDefault() []string {
	var out []string
	for i, p := range a.space {
		if a.idx[i] != p.Default {
			out = append(out, p.Name)
		}
	}
	return out
}

// String renders name=value pairs.
func (a *Assignment) String() string {
	s := ""
	for i, p := range a.space {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", p.Name, p.Values[a.idx[i]])
	}
	return s
}

// StackSettings is the per-layer configuration an assignment denotes.
type StackSettings struct {
	StripeCount int
	StripeSize  int64
	Hints       mpiio.Hints
	HDF5        hdf5.Config
}

// Settings lowers the assignment onto the stack layers.
func (a *Assignment) Settings() StackSettings {
	h := hdf5.DefaultConfig()
	h.SieveBufSize = a.Value(SieveBufSize)
	h.ChunkCacheBytes = a.Value(ChunkCache)
	h.Alignment = a.Value(Alignment)
	h.MetaBlockSize = a.Value(MetaBlockSize)
	h.CollMetadataOps = a.Value(CollMetadataOps) != 0
	h.CollMetadataWrite = a.Value(CollMetadataWrite) != 0
	h.MDC = hdf5.MDCLevel(a.Value(MDCConfig))
	coll := a.Value(CollectiveWrite) != 0
	return StackSettings{
		StripeCount: int(a.Value(StripingFactor)),
		StripeSize:  a.Value(StripingUnit),
		Hints: mpiio.Hints{
			CollectiveWrite: coll,
			CollectiveRead:  coll,
			CBNodes:         int(a.Value(CBNodes)),
			CBBufferSize:    a.Value(CBBufferSize),
		},
		HDF5: h,
	}
}
