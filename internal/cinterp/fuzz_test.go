package cinterp

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tunio/internal/csrc"
	"tunio/internal/hdf5"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// intLiterals returns the [start, end) byte ranges of the decimal integer
// literals in a C source: digit runs that are not part of an identifier, a
// floating-point number or a printf verb.
func intLiterals(src string) [][2]int {
	wordy := func(c byte) bool {
		return c == '_' || c == '.' || c == '%' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	var out [][2]int
	for i := 0; i < len(src); i++ {
		if src[i] < '0' || src[i] > '9' || i > 0 && wordy(src[i-1]) {
			continue
		}
		j := i
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
		}
		if j == len(src) || !wordy(src[j]) {
			out = append(out, [2]int{i, j})
		}
		i = j
	}
	return out
}

// fuzzValues is what an edit may put in a literal's place: the boundaries a
// count, a size or an index can sit on.
var fuzzValues = []int64{-1, 0, 1, 2, 3, 7, 64, 1000, 4096}

// editLiterals applies an edit script to a source, two bytes an edit: which
// integer literal, and which of fuzzValues replaces it.
func editLiterals(src string, script []byte) string {
	lits := intLiterals(src)
	const maxEdits = 8
	if len(script) > 2*maxEdits {
		script = script[:2*maxEdits]
	}
	repl := map[int]int64{}
	for ; len(script) >= 2 && len(lits) > 0; script = script[2:] {
		repl[int(script[0])%len(lits)] = fuzzValues[int(script[1])%len(fuzzValues)]
	}
	var b strings.Builder
	at := 0
	for i, l := range lits {
		if v, ok := repl[i]; ok {
			b.WriteString(src[at:l[0]])
			b.WriteString(strconv.FormatInt(v, 10))
			at = l[1]
		}
	}
	b.WriteString(src[at:])
	return b.String()
}

// FuzzRun feeds the interpreter programs nobody wrote: the five workloads' C
// forms, the two runaways of TestLangRunawayLoopCaught, the one of
// TestLangRunawayRecursionCaught and the overflowing compute of
// TestLangNonFiniteComputeRefused, recorded on four ranks of a planning
// library as a job records them, with up to eight integer literals — sizes,
// counts, loop bounds, indices, ranks compared against — replaced. Whatever
// the parser accepts, Run must answer for, with a result or an error, never
// a panic of its own or of the library under it; and since a rank's calls
// depend on nothing but the program, a second run must record the same
// trace or fail with the same error.
func FuzzRun(f *testing.F) {
	const nprocs = 4
	var seeds []string
	for k, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := workload.ByName(name, nprocs)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, w.(workload.HasCSource).CSource())
		f.Add(uint8(k), []byte{})
		for v := range fuzzValues {
			f.Add(uint8(k), []byte{byte(3 * v), byte(v), byte(5*v + 1), byte(v + 1)})
		}
	}
	for _, src := range []string{runawayEmptyFor, runawayArrays, runawayRecursion, infiniteFlops} {
		f.Add(uint8(len(seeds)), []byte{})
		seeds = append(seeds, src)
	}

	// A rank of the largest seed takes under 2400 steps: an edited loop
	// bound gets room to run, a runaway costs milliseconds.
	const maxOps = 20_000
	recordProg := func(prog *csrc.File) (*replay.Trace, error) {
		return record(nprocs, func(lib *hdf5.Library) error {
			_, err := run(prog, lib, maxOps)
			return err
		})
	}
	f.Fuzz(func(t *testing.T, seed uint8, script []byte) {
		src := editLiterals(seeds[int(seed)%len(seeds)], script)
		prog, err := csrc.Parse(src)
		if err != nil {
			return
		}
		first, firstErr := recordProg(prog)
		if firstErr != nil && strings.Contains(firstErr.Error(), "panicked") {
			t.Fatalf("%v\n%s", firstErr, src)
		}
		again, againErr := recordProg(prog)
		if (firstErr == nil) != (againErr == nil) || firstErr != nil && firstErr.Error() != againErr.Error() {
			t.Fatalf("first run: %v\nsecond run: %v\n%s", firstErr, againErr, src)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("two runs recorded different traces\n%s", src)
		}
	})
}
