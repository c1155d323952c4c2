package cinterp_test

import (
	"testing"

	"tunio/internal/cinterp"
	"tunio/internal/tuner"
)

// BenchmarkRecordCold is what a cold job's recording costs, interpretation
// and the rest: tuner.ResolveKernel over the 20 cold_source shapes on 4×32.
func BenchmarkRecordCold(b *testing.B) {
	progs := cinterp.ColdPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if _, err := tuner.ResolveKernel(tuner.KernelSource{Prog: prog, Nprocs: 128}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
