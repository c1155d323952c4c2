package cinterp

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunFirstErrorIsDeterministic pins the error rule: Run returns the
// first error in merge order. A rank's own error sits at the end of its
// log (lowest rank first when several logs end together); a failing group
// sits where it executes and ends the merge. With a goroutine per rank the
// answer was whichever rank reported first.
func TestRunFirstErrorIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{
			// every rank dies after MPI_Init, each with its own message
			name: "tie goes to the lowest rank",
			src: `
int main() {
    int rank;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    hsize_t a[8] = {0};
    a[8 + rank] = 1;
    MPI_Finalize();
    return 0;
}
`,
			want: "index 8 out of range 8",
		},
		{
			// rank 3's log ends a round before the open every other rank
			// fails in
			name: "a rank's own error before a failing group",
			src: `
int main() {
    int rank;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    if (rank == 3) {
        int x = 1 / 0;
    }
    hid_t f = H5Fopen("/scratch/missing.h5", H5F_ACC_RDONLY, H5P_DEFAULT);
    MPI_Finalize();
    return 0;
}
`,
			want: "division by zero",
		},
		{
			// every rank is in the failing open; what rank 3 does with the
			// token afterwards is never reached
			name: "a failing group before a rank's own error",
			src: `
int main() {
    int rank;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    hid_t f = H5Fopen("/scratch/missing.h5", H5F_ACC_RDONLY, H5P_DEFAULT);
    if (rank == 3) {
        int x = 1 / 0;
    }
    MPI_Finalize();
    return 0;
}
`,
			want: "missing.h5",
		},
	} {
		prog := parseProg(t, tc.src)
		for i := 0; i < 20; i++ {
			_, err := Run(prog, newLib(t, 1, 8))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, run %d: error %v, want one naming %q", tc.name, i, err, tc.want)
			}
		}
	}
}

// TestRunStaysOnTheCallersGoroutine runs 128 ranks into a collective
// mismatch — the case in which a scheduler would have ranks parked to
// release — and checks that no goroutine was started and left behind.
func TestRunStaysOnTheCallersGoroutine(t *testing.T) {
	prog := parseProg(t, `
int main() {
    int rank;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    if (rank % 2 == 0) {
        MPI_Barrier(MPI_COMM_WORLD);
    }
    MPI_Finalize();
    return 0;
}
`)
	lib := newLib(t, 4, 32)
	before := runtime.NumGoroutine()
	_, err := Run(prog, lib)
	// One a previous test left winding down, or a cleanup the runtime is
	// running, comes and goes: only one that stays is Run's.
	after := runtime.NumGoroutine()
	for i := 0; after > before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("error %v, want a collective mismatch", err)
	}
}

// TestOpBudgetIsPerRank checks the seam FuzzRun uses: run holds each rank,
// not the job, to maxOps steps. A rank of the mini kernel takes 94.
func TestOpBudgetIsPerRank(t *testing.T) {
	prog := parseProg(t, miniVPIC)
	if _, err := run(prog, newLib(t, 1, 4), 100); err != nil {
		t.Fatalf("four ranks of 94 steps each under a budget of 100: %v", err)
	}
	_, err := run(prog, newLib(t, 1, 4), 90)
	if err == nil || !strings.Contains(err.Error(), "rank 0 exceeded 90 operations") {
		t.Fatalf("error %v, want rank 0 over its budget", err)
	}
}
