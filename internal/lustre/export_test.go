package lustre

import "tunio/internal/ioreq"

// What the external tests (package lustre_test, which may import the layers
// above this one) need of the internals.

// PhaseOracle is phaseOracle, the pre-split phase.
func (f *File) PhaseOracle(extents []ioreq.Extent, isWrite bool) (float64, error) {
	return f.phaseOracle(extents, isWrite)
}

// File resolves a file as a phase against it would, creating it if new.
func (b *Backend) File(name string) *File { return b.file(name) }

// SetSize presets the file's high-water mark.
func (f *File) SetSize(size int64) { f.size = size }
