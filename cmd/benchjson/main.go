// Command benchjson flattens a benchmark-result JSON document (any of
// the BENCH_*.json files bench.sh writes) into sorted "path value"
// lines, one scalar per line:
//
//	workloads[vpic].traced.ns_per_genome 2679005.1875
//	population 32
//
// Array elements are keyed by their "workload" field when they have one
// (so rows align across runs regardless of order) and by index
// otherwise. scripts/benchcmp.sh diffs two flattened dumps field by
// field with awk.
//
// Usage: benchjson file.json  (or on stdin with no argument)
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

func main() {
	var data []byte
	var err error
	switch len(os.Args) {
	case 1:
		data, err = io.ReadAll(os.Stdin)
	case 2:
		data, err = os.ReadFile(os.Args[1])
	default:
		fmt.Fprintln(os.Stderr, "usage: benchjson [file.json]")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		fatal(err)
	}
	var lines []string
	flatten("", doc, &lines)
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

func flatten(path string, v any, out *[]string) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(p, x[k], out)
		}
	case []any:
		for i, e := range x {
			key := strconv.Itoa(i)
			if m, ok := e.(map[string]any); ok {
				if w, ok := m["workload"].(string); ok {
					key = w
				}
			}
			flatten(path+"["+key+"]", e, out)
		}
	case float64:
		*out = append(*out, fmt.Sprintf("%s %s", path, strconv.FormatFloat(x, 'g', -1, 64)))
	case string:
		*out = append(*out, fmt.Sprintf("%s %q", path, x))
	case bool:
		*out = append(*out, fmt.Sprintf("%s %v", path, x))
	case nil:
		*out = append(*out, path+" null")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
