package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns is the tool behind the benchmark's own acceptance rule. It
// runs the end-to-end pass of each workload n times, on seeds seed,
// seed+1, …, each in a process of its own as the driver does (a second run
// in one process inherits a grown heap and reads a few percent faster),
// and prints every metric's median, quartiles and spread — the
// interquartile distance as a share of the median, with quartiles as
// Python's statistics.quantiles(values, n=4) gives them. With check it
// fails when a spread other than setup_s's exceeds the metric's bound: a
// metric whose own runs disagree by more than its bound cannot tell a
// regression from noise.
func repeatRuns(defs []*workloadDef, sc scale, seed int64, seconds float64, outDir string, n int, check bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var wide []string
	for _, d := range defs {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", d.name, "-scale", sc.name, "-trace", "0", "-out", outDir,
				"-seed", strconv.FormatInt(s, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stdout.Write(out)
				return fmt.Errorf("%s seed %d: %w", d.name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", d.name, s, err)
			}
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %d jobs, %.4g jobs/s\n", d.name, s, res.Attempted, res.Metrics["jobs_per_s"].Value)
		}
		fmt.Printf("# %s: %d runs, seeds %d..%d, scale=%s seconds=%g\n", d.name, n, seed, seed+int64(n)-1, sc.name, seconds)
		fmt.Printf("%-20s %-9s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			sp := spread(values[m.Name])
			fmt.Printf("%-20s %-9s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%\n", m.Name, m.Unit, q1, q2, q3, 100*sp, 100*m.Bound)
			if m.Name != "setup_s" && sp > m.Bound {
				wide = append(wide, fmt.Sprintf("%s/%s spread %.2f%% > bound %.0f%%", d.name, m.Name, 100*sp, 100*m.Bound))
			}
		}
	}
	if check && len(wide) > 0 {
		return fmt.Errorf("spreads beyond their bounds: %v", wide)
	}
	return nil
}
