package replay

import (
	"slices"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// editTrace applies an edit script to a copy of the trace, three bytes an
// edit — what, which event, and an argument: drop the event, duplicate it
// before another, swap it with another, retarget its file or dataset name
// to another event's (none, when that event has no such name), or empty
// its slab list. Events are replaced, never written through, so the copy
// may share the seed's slices.
func editTrace(seed *Trace, script []byte) *Trace {
	tr := &Trace{Nprocs: seed.Nprocs, Events: slices.Clone(seed.Events)}
	const maxEdits = 8
	if len(script) > 3*maxEdits {
		script = script[:3*maxEdits]
	}
	for ; len(script) >= 3 && len(tr.Events) > 0; script = script[3:] {
		i, j := int(script[1])%len(tr.Events), int(script[2])%len(tr.Events)
		switch script[0] % 6 {
		case 0:
			tr.Events = slices.Delete(tr.Events, i, i+1)
		case 1:
			tr.Events = slices.Insert(tr.Events, j, tr.Events[i])
		case 2:
			tr.Events[i], tr.Events[j] = tr.Events[j], tr.Events[i]
		case 3:
			tr.Events[i].File = tr.Events[j].File
		case 4:
			tr.Events[i].Dataset = tr.Events[j].Dataset
		case 5:
			tr.Events[i].Slabs = nil
		}
	}
	return tr
}

// FuzzTraceWalk is the differential check on the path a loaded kernel store
// takes: a trace nobody recorded goes through the live walker and through
// the staged engine, and the two must agree — on whether the trace is
// acceptable, with the same error when it is not, and on the clock and
// every darshan counter when it is. Inputs are edit scripts over the
// recorded traces of the six fixtures on a 1×4 cluster; each is tried under
// the default configuration and under one that makes writes collective and
// the chunk cache (64 KiB, below the tuning grid) too small to keep the
// chunks a phase rewrites.
func FuzzTraceWalk(f *testing.F) {
	c := cluster.CoriHaswell(1, 4)
	def := params.DefaultAssignment(params.Space()).Settings()
	coll := def
	coll.Hints.CollectiveWrite = true
	coll.HDF5.ChunkCacheBytes = 64 << 10
	var seeds []*Trace
	for k, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio", "ior"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			f.Fatal(err)
		}
		st, err := workload.BuildStack(c, def, 1)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := Record(w, st)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, tr)
		f.Add(uint8(k), []byte{})
		for what := byte(0); what < 6; what++ {
			f.Add(uint8(k), []byte{what, 2, 5, what, 7, 3})
		}
	}

	f.Fuzz(func(t *testing.T, seed uint8, script []byte) {
		tr := editTrace(seeds[int(seed)%len(seeds)], script)
		for _, s := range []params.StackSettings{def, coll} {
			live, err := workload.BuildStack(c, s, 1)
			if err != nil {
				t.Fatal(err)
			}
			liveErr := (&Player{T: tr}).Run(live)
			sp, planErr := BuildStackPlan(tr, s.HDF5)
			if liveErr != nil || planErr != nil {
				if liveErr == nil || planErr == nil || liveErr.Error() != planErr.Error() {
					t.Fatalf("live walk: %v\nplanning walk: %v", liveErr, planErr)
				}
				continue
			}
			staged, err := workload.BuildStack(c, s, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := new(Runtime).Exec(LowerPlan(sp, s.Hints, s.HDF5, c.ProcsPerNode), staged); err != nil {
				t.Fatalf("live run accepted, staged exec: %v", err)
			}
			if got, want := staged.Sim.Now(), live.Sim.Now(); got != want {
				t.Errorf("staged clock %v, live %v", got, want)
			}
			reportsEqual(t, "fuzzed trace", live.Sim.Report, staged.Sim.Report)
		}
	})
}
