package cinterp

import (
	"fmt"
	"sort"
	"strconv"

	"tunio/internal/hdf5"
)

// request is one collective call in a rank's log: what the rank asked for,
// kept until the merge executes it together with the other ranks' calls.
type request struct {
	rank  int
	op    string
	name  string
	id    int64 // the handle argument as the rank holds it; resolve makes it the shared id
	token int64 // the rank-local id the call returned, if it makes a handle
	dims  []int64
	chunk []int64
	slab  hdf5.Slab
	flops float64
	key   string // grouping key: op + target handle/name, set by resolve
}

// fullyCollective ops require every live rank to arrive at the same call
// before proceeding (file-level collectives and barriers, matching
// parallel HDF5/MPI semantics); other ops execute with whichever ranks
// arrived (dataset I/O from a rank subset is a smaller phase).
var fullyCollective = map[string]bool{
	"H5Fcreate": true, "H5Fopen": true, "H5Fclose": true,
	"MPI_Init": true, "MPI_Finalize": true, "MPI_Barrier": true,
}

// merger turns the ranks' call logs into phases against the simulated
// stack: the only code of the package that touches the library.
type merger struct {
	lib     *hdf5.Library
	handles map[int64]interface{} // shared *hdf5.File / *hdf5.Dataset
	nextID  int64                 // even IDs for shared handles
	bound   map[int64]int64       // rank-local token -> shared ID
}

func newMerger(lib *hdf5.Library) *merger {
	return &merger{
		lib:     lib,
		handles: map[int64]interface{}{},
		nextID:  2,
		bound:   map[int64]int64{},
	}
}

// run serves the logs in rounds, as if the ranks had run side by side and
// blocked in every call. A round is the next unserved call of every rank
// that still has one (the live ranks), grouped by key and taken in key
// order, members by rank; a fully-collective group short of a live rank
// stays for a later round, every other group executes as one phase. A
// round in which nothing executes is a deadlock of the program.
//
// It returns the first error in that order. A rank's own error counts once
// a round finds its log served to the end, lower ranks first; a group that
// fails, or a deadlock, ends the merge.
func (m *merger) run(ranks []*interp) error {
	var first error
	fail := func(err error) error {
		if first != nil {
			return first
		}
		return err
	}
	served := make([]int, len(ranks))
	heads := make([]*request, 0, len(ranks))
	for {
		heads = heads[:0]
		for _, in := range ranks {
			if served[in.rank] == len(in.log) {
				if first == nil {
					first = in.err
				}
				continue
			}
			r := &in.log[served[in.rank]]
			if r.key == "" {
				m.resolve(r)
			}
			heads = append(heads, r)
		}
		if len(heads) == 0 {
			return first
		}
		// stable: a group's members stay in rank order
		sort.SliceStable(heads, func(i, j int) bool { return heads[i].key < heads[j].key })
		executed := false
		for i, j := 0, 0; i < len(heads); i = j {
			for j = i + 1; j < len(heads) && heads[j].key == heads[i].key; j++ {
			}
			group := heads[i:j]
			if fullyCollective[group[0].op] && len(group) < len(heads) {
				continue
			}
			if err := m.execute(group); err != nil {
				return fail(err)
			}
			for _, r := range group {
				served[r.rank]++
			}
			executed = true
		}
		if !executed {
			// every live rank is blocked in a fully-collective call that
			// will never complete: a genuine collective mismatch
			return fail(fmt.Errorf("cinterp: collective mismatch: ranks blocked in different collective calls"))
		}
	}
}

// resolve prepares a request that has reached the head of its rank's log:
// the token it names becomes the shared ID the token is bound to — the call
// that returned the token is earlier in the same log, so it has executed —
// and the grouping key follows from that.
func (m *merger) resolve(r *request) {
	if id, ok := m.bound[r.id]; ok {
		r.id = id
	}
	switch r.op {
	case "MPI_Init", "MPI_Finalize", "MPI_Barrier", "compute":
		r.key = r.op
	case "H5Fcreate", "H5Fopen":
		r.key = r.op + ":" + r.name
	case "H5Fclose", "H5Dclose", "H5Dwrite", "H5Dread":
		r.key = r.op + ":" + strconv.FormatInt(r.id, 10)
	default: // H5Dcreate, H5Dopen, H5Gcreate, H5Acreate
		r.key = r.op + ":" + strconv.FormatInt(r.id, 10) + ":" + r.name
	}
}

// execute runs one group as a single operation/phase. An op that makes a
// handle registers it under the next shared ID and binds every member's
// token to it.
func (m *merger) execute(group []*request) error {
	lead := group[0]
	switch lead.op {
	case "H5Fcreate", "H5Fopen":
		open := m.lib.CreateFile
		if lead.op == "H5Fopen" {
			open = m.lib.OpenFile
		}
		f, err := open(lead.name)
		if err != nil {
			return err
		}
		m.register(f, group)

	case "H5Fclose":
		f, ok := m.handles[lead.id].(*hdf5.File)
		if !ok {
			return fmt.Errorf("cinterp: H5Fclose on invalid handle %d", lead.id)
		}
		return f.Close()

	case "H5Dcreate":
		f, ok := m.handles[lead.id].(*hdf5.File)
		if !ok {
			return fmt.Errorf("cinterp: H5Dcreate on invalid file handle %d", lead.id)
		}
		space, err := hdf5.NewSpace(lead.dims, 8)
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset(lead.name, space, lead.chunk)
		if err != nil {
			return err
		}
		m.register(ds, group)

	case "H5Dopen":
		f, ok := m.handles[lead.id].(*hdf5.File)
		if !ok {
			return fmt.Errorf("cinterp: H5Dopen on invalid file handle %d", lead.id)
		}
		ds, err := f.OpenDataset(lead.name)
		if err != nil {
			return err
		}
		m.register(ds, group)

	case "H5Dwrite", "H5Dread":
		ds, ok := m.handles[lead.id].(*hdf5.Dataset)
		if !ok {
			return fmt.Errorf("cinterp: %s on invalid dataset handle %d", lead.op, lead.id)
		}
		slabs := make([]hdf5.Slab, len(group))
		for i, r := range group {
			slabs[i] = r.slab
		}
		var err error
		if lead.op == "H5Dwrite" {
			_, err = ds.Write(slabs)
		} else {
			_, err = ds.Read(slabs)
		}
		return err

	case "H5Dclose":
		// the library has no per-dataset close: nothing to charge

	case "H5Gcreate":
		f, ok := m.handles[lead.id].(*hdf5.File)
		if !ok {
			return fmt.Errorf("cinterp: H5Gcreate on invalid file handle %d", lead.id)
		}
		if err := f.CreateGroup(lead.name); err != nil {
			return err
		}
		// a group id behaves as a location: alias it to the file handle so
		// H5Dcreate(group, ...) works
		m.register(f, group)

	case "H5Acreate":
		var err error
		switch obj := m.handles[lead.id].(type) {
		case *hdf5.File:
			err = obj.WriteAttribute(lead.name, 0)
		case *hdf5.Dataset:
			err = obj.WriteAttribute(lead.name, 0)
		default:
			err = fmt.Errorf("cinterp: H5Acreate on invalid handle %d", lead.id)
		}
		if err != nil {
			return err
		}
		m.register(struct{}{}, group)

	case "MPI_Init", "MPI_Finalize", "MPI_Barrier":
		m.lib.Barrier(len(group))

	case "compute":
		max := 0.0
		for _, r := range group {
			if r.flops > max {
				max = r.flops
			}
		}
		m.lib.Compute(max)

	default:
		return fmt.Errorf("cinterp: unknown collective op %q", lead.op)
	}
	return nil
}

func (m *merger) register(obj interface{}, group []*request) {
	id := m.nextID
	m.nextID += 2
	m.handles[id] = obj
	for _, r := range group {
		m.bound[r.token] = id
	}
}
