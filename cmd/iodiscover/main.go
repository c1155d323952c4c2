// Command iodiscover is the CLI for TunIO's Application I/O Discovery
// component: it converts application source code to its equivalent I/O
// kernel, which can then substitute for the application during the tuning
// pipeline's configuration evaluation phase (§III-E, "Use Case").
//
// Usage:
//
//	iodiscover [-loop-reduction 0.01] [-path-switch] [-keep fn1,fn2]
//	           [-heuristic] [-marked] [-sig [-json]] [-o kernel.c] input.c
//
// The exit code is 0 on success, 1 when the transform verifier reports an
// error-severity diagnostic (the kernel is still written, but at least one
// requested transform was refused as unsound), and 2 on usage or parse
// errors. Warning-severity diagnostics go to stderr and do not affect the
// exit code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tunio/internal/analysis"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
)

func main() {
	loopReduction := flag.Float64("loop-reduction", 0, "keep this fraction of I/O-loop iterations (0 disables, paper uses 0.01)")
	pathSwitch := flag.Bool("path-switch", false, "rewrite file paths to /dev/shm (I/O path switching)")
	keep := flag.String("keep", "", "comma-separated function names to keep whole (manual keep regions)")
	simCompute := flag.Bool("simulate-compute", false, "replace removed compute with synthetic compute_flops calls")
	blindWrites := flag.Bool("remove-blind-writes", false, "drop writes overwritten before any read")
	heuristic := flag.Bool("heuristic", false, "slice with per-line fixpoint marking instead of CFG def-use chains")
	showMarked := flag.Bool("marked", false, "print the marking report instead of the kernel")
	showSig := flag.Bool("sig", false, "print the kernel's symbolic I/O signature instead of the kernel")
	jsonOut := flag.Bool("json", false, "with -sig, emit the signature as JSON")
	out := flag.String("o", "", "write the kernel to this file (default stdout)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iodiscover [flags] input.c")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	opts := discovery.Options{
		LoopReduction:     *loopReduction,
		PathSwitch:        *pathSwitch,
		SimulateCompute:   *simCompute,
		RemoveBlindWrites: *blindWrites,
		Heuristic:         *heuristic,
	}
	if *keep != "" {
		opts.KeepFuncs = strings.Split(*keep, ",")
	}

	kernel, err := discovery.Discover(string(src), opts)
	if err != nil {
		fatal(err)
	}

	if *showMarked {
		fmt.Printf("marked %d of %d formatted lines (%.1f%%)\n",
			len(kernel.MarkedLines), kernel.TotalLines,
			100*float64(len(kernel.MarkedLines))/float64(kernel.TotalLines))
		marked := map[int]bool{}
		for _, l := range kernel.MarkedLines {
			marked[l] = true
		}
		for i, line := range strings.Split(kernel.FormattedInput, "\n") {
			tag := "      "
			if marked[i+1] {
				tag = "KEEP  "
			}
			fmt.Printf("%s%4d  %s\n", tag, i+1, line)
		}
		return
	}

	if *showSig {
		f, err := csrc.Parse(kernel.Source)
		if err != nil {
			fatal(fmt.Errorf("re-parsing kernel: %w", err))
		}
		s := analysis.ComputeSignature(f, analysis.SignatureOptions{})
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(s); err != nil {
				fatal(err)
			}
		} else {
			fmt.Print(s.Format())
		}
		return
	}

	for _, w := range kernel.Warnings {
		fmt.Fprintf(os.Stderr, "iodiscover: %s\n", w)
	}
	if kernel.RemovedBlindWrites > 0 {
		fmt.Fprintf(os.Stderr, "iodiscover: removed %d blind write(s)\n", kernel.RemovedBlindWrites)
	}
	if kernel.SimulatedComputeCalls > 0 {
		fmt.Fprintf(os.Stderr, "iodiscover: inserted %d synthetic compute call(s)\n", kernel.SimulatedComputeCalls)
	}
	if kernel.ReducedLoops > 0 {
		fmt.Fprintf(os.Stderr, "iodiscover: reduced %d loop(s); scale I/O metrics by %.0fx\n",
			kernel.ReducedLoops, kernel.LoopScale)
	}
	if *out == "" {
		fmt.Print(kernel.Source)
	} else if err := os.WriteFile(*out, []byte(kernel.Source), 0o644); err != nil {
		fatal(err)
	}
	// An error-severity diagnostic means a requested transform was refused
	// as unsound: the kernel above is still valid (the transform was not
	// applied), but scripted pipelines must notice.
	if analysis.MaxSeverity(kernel.Warnings) >= analysis.SevError {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iodiscover:", err)
	os.Exit(1)
}
