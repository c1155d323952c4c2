// Package darshan collects I/O characterization counters for simulated
// application runs, mirroring the role the Darshan tool plays in the paper's
// tuning pipeline (it is the monitoring hook the fitness function reads
// bandwidth from, and it supplies the I/O-footprint similarity metrics of
// Figure 8c).
//
// Counters are organized per layer ("hdf5", "mpiio", "lustre", "posix",
// "mem") so experiments can attribute cost, with convenience aggregates for
// the usual bandwidth computation.
package darshan

import (
	"fmt"
	"sort"
	"strings"
)

// LayerCounters holds the counters of one stack layer.
type LayerCounters struct {
	ReadOps      int64
	WriteOps     int64
	MetaOps      int64
	BytesRead    int64
	BytesWritten int64
	ReadTime     float64 // simulated seconds
	WriteTime    float64
	MetaTime     float64
}

// AddWrite records a write of size bytes taking elapsed seconds.
func (lc *LayerCounters) AddWrite(bytes int64, elapsed float64) {
	lc.WriteOps++
	lc.BytesWritten += bytes
	lc.WriteTime += elapsed
}

// AddRead records a read.
func (lc *LayerCounters) AddRead(bytes int64, elapsed float64) {
	lc.ReadOps++
	lc.BytesRead += bytes
	lc.ReadTime += elapsed
}

// AddMeta records n metadata operations taking elapsed seconds.
func (lc *LayerCounters) AddMeta(n int64, elapsed float64) {
	lc.MetaOps += n
	lc.MetaTime += elapsed
}

// add accumulates o into lc.
func (lc *LayerCounters) add(o *LayerCounters) {
	lc.ReadOps += o.ReadOps
	lc.WriteOps += o.WriteOps
	lc.MetaOps += o.MetaOps
	lc.BytesRead += o.BytesRead
	lc.BytesWritten += o.BytesWritten
	lc.ReadTime += o.ReadTime
	lc.WriteTime += o.WriteTime
	lc.MetaTime += o.MetaTime
}

// LayerID addresses one of the stack's known layers without a name lookup:
// the simulator's hot paths book counters through Report.At.
type LayerID uint8

// The known layers, in name order.
const (
	HDF5 LayerID = iota
	Lustre
	Mem
	MPIIO
	POSIX
	knownLayers
)

var layerNames = [knownLayers]string{HDF5: "hdf5", Lustre: "lustre", Mem: "mem", MPIIO: "mpiio", POSIX: "posix"}

// Report is a full set of per-layer counters for one run. The known layers
// live in a fixed array; a layer of any other name is kept by name. Either
// kind is present (listed by Layers) only once something asked for it.
type Report struct {
	known   [knownLayers]LayerCounters
	present [knownLayers]bool
	other   map[string]*LayerCounters
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{} }

// At returns the counters of a known layer, marking it present.
func (r *Report) At(id LayerID) *LayerCounters {
	r.present[id] = true
	return &r.known[id]
}

// Layer returns the counters for a layer, creating them on first use.
func (r *Report) Layer(name string) *LayerCounters {
	for id, known := range layerNames {
		if name == known {
			return r.At(LayerID(id))
		}
	}
	lc, ok := r.other[name]
	if !ok {
		if r.other == nil {
			r.other = make(map[string]*LayerCounters)
		}
		lc = &LayerCounters{}
		r.other[name] = lc
	}
	return lc
}

// each calls fn for every layer present, in no particular order.
func (r *Report) each(fn func(name string, lc *LayerCounters)) {
	for id := range r.known {
		if r.present[id] {
			fn(layerNames[id], &r.known[id])
		}
	}
	for name, lc := range r.other {
		fn(name, lc)
	}
}

// Layers returns the layer names present, sorted.
func (r *Report) Layers() []string {
	var names []string
	r.each(func(name string, _ *LayerCounters) { names = append(names, name) })
	sort.Strings(names)
	return names
}

// Reset zeroes all counters in place, keeping layer pointers valid (callers
// holding a *LayerCounters from Layer see the zeroed counters) and present
// layers present.
func (r *Report) Reset() {
	r.known = [knownLayers]LayerCounters{}
	for _, lc := range r.other {
		*lc = LayerCounters{}
	}
}

// AddWrite records a write of size bytes taking elapsed seconds at a layer.
func (r *Report) AddWrite(layer string, bytes int64, elapsed float64) {
	r.Layer(layer).AddWrite(bytes, elapsed)
}

// AddRead records a read.
func (r *Report) AddRead(layer string, bytes int64, elapsed float64) {
	r.Layer(layer).AddRead(bytes, elapsed)
}

// AddMeta records n metadata operations taking elapsed seconds.
func (r *Report) AddMeta(layer string, n int64, elapsed float64) {
	r.Layer(layer).AddMeta(n, elapsed)
}

// Totals aggregates counters across all layers. Because layers nest (an
// HDF5 write flows through MPI-IO to Lustre), totals are only meaningful
// per layer; Totals exists for single-layer reports and debugging.
func (r *Report) Totals() LayerCounters {
	var t LayerCounters
	r.each(func(_ string, lc *LayerCounters) { t.add(lc) })
	return t
}

// AppLayer is the conventional name for application-visible I/O (what the
// workload asked for, before any library transformation). Bandwidth and
// footprint metrics are computed from this layer.
const AppLayer = "hdf5"

// App returns the application-visible counters.
func (r *Report) App() *LayerCounters { return r.At(HDF5) }

// WriteBandwidth returns application write bandwidth in bytes/second over
// the app layer's recorded write time (0 when no time was spent).
func (r *Report) WriteBandwidth() float64 {
	app := r.App()
	if app.WriteTime <= 0 {
		return 0
	}
	return float64(app.BytesWritten) / app.WriteTime
}

// ReadBandwidth returns application read bandwidth in bytes/second.
func (r *Report) ReadBandwidth() float64 {
	app := r.App()
	if app.ReadTime <= 0 {
		return 0
	}
	return float64(app.BytesRead) / app.ReadTime
}

// WriteRatio returns α, the fraction of transferred bytes that were writes
// (the α in the paper's perf definition). Returns 1 when nothing was read.
func (r *Report) WriteRatio() float64 {
	app := r.App()
	total := app.BytesRead + app.BytesWritten
	if total == 0 {
		return 1
	}
	return float64(app.BytesWritten) / float64(total)
}

// Merge adds other's counters into r.
func (r *Report) Merge(other *Report) {
	other.each(func(name string, olc *LayerCounters) { r.Layer(name).add(olc) })
}

// String renders the report as a table for logs.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %14s %14s %10s %10s %10s\n",
		"layer", "writes", "reads", "meta", "bytesW", "bytesR", "tW(s)", "tR(s)", "tM(s)")
	for _, name := range r.Layers() {
		lc := r.Layer(name)
		fmt.Fprintf(&b, "%-8s %10d %10d %8d %14d %14d %10.3f %10.3f %10.3f\n",
			name, lc.WriteOps, lc.ReadOps, lc.MetaOps, lc.BytesWritten, lc.BytesRead,
			lc.WriteTime, lc.ReadTime, lc.MetaTime)
	}
	return b.String()
}

// PercentError returns |a-b| / |b| * 100, the absolute percentage error
// metric used in Figure 8c (0 when both are 0, +Inf when only b is 0).
func PercentError(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1e308 // effectively infinite error
	}
	d := (a - b) / b * 100
	if d < 0 {
		return -d
	}
	return d
}
