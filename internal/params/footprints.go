package params

import "tunio/internal/hdf5"

// Stage footprints declare which parameters each stage of the staged
// trace-replay evaluation engine (internal/replay) actually reads. Two
// assignments whose projections onto a stage's footprint are equal produce
// byte-identical stage artifacts, so the engine caches each stage's output
// keyed by the assignment's ProjectionKey over that footprint.
//
// The three stages mirror the stack layers a transfer flows through:
//
//   - PlanStage: HDF5 slab→extent/chunk planning. Reads the alignment
//     policy (data offsets), the sieve buffer (extent coalescing), and the
//     chunk cache capacity (which chunks need read-modify-write).
//   - AggregateStage: MPI-IO two-phase lowering plus metadata routing.
//     Reads the collective-buffering hints and the collective-metadata
//     switches (which decide how planned extents become wire requests).
//     The aggregation schedule is computed over the plan-stage artifact, so
//     its cache key is the union of both footprints.
//   - ServiceStage: Lustre/cluster service of the wire plan. Its integer
//     half is cached: how a storage phase's extents — an independent
//     transfer's, or one two-phase round's of a collective transfer — split
//     over the stripe layout reads only the striping pair, so the engine
//     keeps per-OST phase tables per (wire plan, striping) and reuses them
//     across seeds and drift epochs (replay stage 3a; the service_hits /
//     service_misses / service_fallbacks of replay.StageStats count those
//     phases, rounds included). The float half is not: the metadata-cache
//     level decides misses with the run's RNG, and the cost of every phase
//     consumes the run seed (noise) and the drift schedule.
//
// A footprint is an upper bound on what a stage reads, and the cache key of
// a projection — not of an artifact: the stage cache holds each distinct
// artifact once, so projections that produce equal content (most plan
// projections of a kernel; aggregate projections that differ only in hints
// an independent transfer never reads) are separate keys, counted as
// separate misses, onto one stack plan, wire plan and set of phase tables.
var (
	PlanStage = []string{Alignment, SieveBufSize, ChunkCache}

	AggregateStage = []string{
		CollectiveWrite, CBNodes, CBBufferSize,
		CollMetadataOps, CollMetadataWrite, MetaBlockSize,
	}

	ServiceStage = []string{StripingFactor, StripingUnit, MDCConfig}
)

// ProjectionKey returns a compact comparable key identifying the
// assignment's projection onto the named parameters: the stage-cache key.
// Value indices (not raw values) are encoded, one byte each — every value
// list in Space() has fewer than 256 entries. Names must exist in the
// assignment's space.
func (a *Assignment) ProjectionKey(names []string) string {
	return string(a.AppendProjection(make([]byte, 0, len(names)), names))
}

// AppendProjection appends the projection-key bytes of the named
// parameters to dst and returns the extended slice. It is the allocation
// free form of ProjectionKey for hot paths that build cache keys into a
// caller-owned scratch buffer (map lookups via string(dst) then compile
// to no allocation at all).
func (a *Assignment) AppendProjection(dst []byte, names []string) []byte {
	for _, name := range names {
		j := Index(a.space, name)
		if j < 0 {
			panic("params: unknown parameter " + name)
		}
		dst = append(dst, byte(a.idx[j]))
	}
	return dst
}

// AppendPlanProjection is AppendProjection over PlanStage with the
// parameters outside reads blanked to their first value: the key of what a
// kernel's stage-1 planning depends on when reads is that kernel's plan
// footprint (hdf5.PlanReads — which of the three fields Settings feeds these
// parameters to its planning consults at all). Blanking to a value, not a
// marker, makes the key that of a real assignment: the one that differs from
// a only in parameters the kernel never reads.
func (a *Assignment) AppendPlanProjection(dst []byte, reads hdf5.PlanReads) []byte {
	dst = a.AppendProjection(dst, PlanStage)
	key := dst[len(dst)-len(PlanStage):]
	// in PlanStage order
	for i, field := range [...]hdf5.PlanReads{hdf5.ReadsAlignment, hdf5.ReadsSieveBuf, hdf5.ReadsChunkCache} {
		if reads&field == 0 {
			key[i] = 0
		}
	}
	return dst
}
