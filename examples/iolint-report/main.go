// iolint-report demonstrates the static analysis layer on the bundled
// VPIC source: lint diagnostics over the original program, then the
// transform-safety report the discovery pipeline would attach to a
// loop-reduced, path-switched kernel.
//
//	go run ./examples/iolint-report
package main

import (
	"fmt"
	"log"

	"tunio"
	"tunio/internal/analysis"
	"tunio/internal/csrc"
	"tunio/internal/workload"
)

func main() {
	v := workload.NewVPIC(64)
	src := v.CSource()

	fmt.Println("== lint diagnostics (original VPIC source) ==")
	file, err := csrc.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	diags := analysis.Lint(file, analysis.LintOptions{})
	if len(diags) == 0 {
		fmt.Println("no findings: the bundled VPIC source is clean")
	}
	for _, d := range diags {
		fmt.Println(d)
	}

	// introduce the classic mistakes iolint exists to catch
	fmt.Println()
	fmt.Println("== lint diagnostics (seeded with common I/O mistakes) ==")
	buggy := `int main() {
    int unused_count;
    hid_t file_id = H5Fcreate("/scratch/out.h5", 0, 0, 0);
    hid_t dset = H5Dcreate(file_id, "field", 0, 0, 0, 0, 0);
    double buf[64];
    H5Dwrite(dset, 0, 0, 0, 0, buf);
    H5Dwrite(dset, 0, 0, 0, 0, buf);
    while (1) {
        H5Dwrite(dset, 0, 0, 0, 0, buf);
    }
    H5Dclose(dset);
    H5Fclose(file_id);
    return 0;
}`
	bf, err := csrc.Parse(buggy)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range analysis.Lint(bf, analysis.LintOptions{}) {
		fmt.Println(d)
	}

	fmt.Println()
	fmt.Println("== transform-safety report (VPIC kernel, loop reduction + path switch) ==")
	kernel, err := tunio.DiscoverIO(src, tunio.DiscoveryOptions{
		LoopReduction: 0.25,
		PathSwitch:    true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(kernel.Warnings) == 0 {
		fmt.Println("all enabled transforms are provably safe on this kernel")
	}
	for _, w := range kernel.Warnings {
		fmt.Println(w)
	}
	fmt.Printf("\nkernel: kept %d of %d source lines (precise slice), loop scale %.0fx\n",
		len(kernel.MarkedLines), kernel.TotalLines, kernel.LoopScale)
}
