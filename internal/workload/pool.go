package workload

import (
	"sync"

	"tunio/internal/cluster"
	"tunio/internal/hdf5"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/params"
	"tunio/internal/posixio"
)

// rewire binds a library for the given settings onto the stack's existing
// simulation and storage backends. The first call builds the lustre
// backend, resolver closure, and library; later calls — the pooled
// steady state — restripe the backend and rebind the library in place,
// so a reset allocates nothing.
func (st *Stack) rewire(s params.StackSettings) error {
	if st.lb != nil {
		st.lb.StripeCount, st.lb.StripeSize = s.StripeCount, s.StripeSize
		return st.Lib.Rebind(s.Hints, s.HDF5)
	}
	lb := &lustre.Backend{FS: st.FS, StripeCount: s.StripeCount, StripeSize: s.StripeSize}
	resolver := func(path string) ioreq.Backend {
		if posixio.IsMemPath(path) {
			return st.Mem
		}
		return lb
	}
	lib, err := hdf5.NewLibrary(st.Sim, resolver, s.Hints, s.HDF5, st.Sim.Cluster.Procs())
	if err != nil {
		return err
	}
	st.lb, st.Lib = lb, lib
	return nil
}

// Layout returns the lustre layout — the striping new files get, with the
// pool and node shape — this run's Lustre phases are planned under: the key
// replay shares phase tables by.
func (st *Stack) Layout() lustre.Layout { return st.lb.Layout() }

// Reset rewinds the stack for a fresh run under new settings and seed,
// reusing the simulation context and storage backends (with their scratch
// buffers) instead of rebuilding them. A reset stack is indistinguishable
// from a freshly built one: the clock, RNG stream, report counters, and
// file namespaces all start over.
func (st *Stack) Reset(s params.StackSettings, seed int64) error {
	st.Sim.Reset(seed)
	st.FS.Reset()
	st.Mem.Reset()
	return st.rewire(s)
}

// StackPool recycles stacks across evaluations of one cluster. Workers in
// a tuning pool Get a stack per run and Put it back, amortizing the lustre
// scratch and backend allocations over the whole tune.
type StackPool struct {
	C    *cluster.Cluster
	pool sync.Pool
}

// NewStackPool returns a pool building stacks over the cluster.
func NewStackPool(c *cluster.Cluster) *StackPool {
	return &StackPool{C: c}
}

// Get returns a stack configured for the settings and seed, reusing a
// pooled one when available.
func (p *StackPool) Get(s params.StackSettings, seed int64) (*Stack, error) {
	if v := p.pool.Get(); v != nil {
		st := v.(*Stack)
		if err := st.Reset(s, seed); err != nil {
			return nil, err
		}
		return st, nil
	}
	return BuildStack(p.C, s, seed)
}

// Put returns a stack to the pool for reuse.
func (p *StackPool) Put(st *Stack) {
	if st != nil {
		p.pool.Put(st)
	}
}
