// Package scratch provides a per-worker bump-allocator workspace for the
// hot per-tick paths (sounding, super-resolution fitting, beam weight
// synthesis). A Workspace hands out zeroed complex128 and float64 slices
// from size-classed chunks; checkouts are freed en masse with Release
// (stack discipline via Mark) or Reset (whole arena), so a maintenance
// tick or Monte-Carlo trial runs with near-constant allocation after
// warm-up.
//
// Ownership and aliasing rules (see DESIGN.md "Workspace ownership"):
//
//   - A Workspace is single-goroutine: exactly one worker may use it at a
//     time. experiments.ParallelTrials creates one per worker.
//   - Slices returned by Complex/Float are valid until the enclosing
//     Release(mark) or Reset(). Callers must not retain them past that
//     point; copy out anything that must survive.
//   - A callee that receives a *Workspace may check out transient buffers
//     under its own Mark/Release pair, and may check out result buffers
//     *before* taking its mark so they survive its release — but those
//     results still die at the caller's release. Results that outlive the
//     trial (figure tables, Result.Amp handed to long-lived state) must be
//     copied into ordinary heap slices by whoever keeps them.
//   - Checkouts are zeroed, so code paths are byte-identical whether a
//     buffer is fresh from make() or recycled from the arena. This is what
//     keeps figure tables identical at any worker count.
package scratch

// chunk sizes double from these floors; the first complex chunk is large
// enough that a full superres ExtractInto (Gram + ramps + candidates for a
// few beams at nsc=64) fits in one or two chunks.
const (
	firstComplexChunk = 512
	firstFloatChunk   = 256
)

// Workspace is a size-classed bump arena over complex128 and float64
// pools. The zero value is not usable; call New.
type Workspace struct {
	cChunks [][]complex128
	fChunks [][]float64
	cIdx    int // chunk currently being bumped
	cOff    int // offset within cChunks[cIdx]
	fIdx    int
	fOff    int
}

// Mark records the arena position so everything checked out after it can
// be released at once. Marks must be released in LIFO order.
type Mark struct {
	cIdx, cOff int
	fIdx, fOff int
}

// New returns an empty workspace. Chunks are allocated lazily on first
// checkout and retained across Release/Reset.
func New() *Workspace {
	return &Workspace{}
}

// Mark returns the current arena position.
func (w *Workspace) Mark() Mark {
	return Mark{cIdx: w.cIdx, cOff: w.cOff, fIdx: w.fIdx, fOff: w.fOff}
}

// Release rewinds the arena to m, invalidating every slice checked out
// after the mark. The chunk memory is retained for reuse.
func (w *Workspace) Release(m Mark) {
	w.cIdx, w.cOff = m.cIdx, m.cOff
	w.fIdx, w.fOff = m.fIdx, m.fOff
}

// Reset rewinds the arena to empty, retaining all chunks.
func (w *Workspace) Reset() {
	w.cIdx, w.cOff, w.fIdx, w.fOff = 0, 0, 0, 0
}

// Complex checks out a zeroed complex128 slice of length n.
func (w *Workspace) Complex(n int) []complex128 {
	if n == 0 {
		return nil
	}
	for {
		if w.cIdx < len(w.cChunks) {
			c := w.cChunks[w.cIdx]
			if w.cOff+n <= len(c) {
				s := c[w.cOff : w.cOff+n : w.cOff+n]
				w.cOff += n
				clear(s)
				return s
			}
			// Current chunk full: advance. The tail of the old chunk is
			// wasted until the next Release/Reset — fine for a bump arena.
			w.cIdx++
			w.cOff = 0
			continue
		}
		size := firstComplexChunk << len(w.cChunks)
		if size < n {
			size = n
		}
		w.cChunks = append(w.cChunks, make([]complex128, size))
	}
}

// Float checks out a zeroed float64 slice of length n.
func (w *Workspace) Float(n int) []float64 {
	if n == 0 {
		return nil
	}
	for {
		if w.fIdx < len(w.fChunks) {
			c := w.fChunks[w.fIdx]
			if w.fOff+n <= len(c) {
				s := c[w.fOff : w.fOff+n : w.fOff+n]
				w.fOff += n
				clear(s)
				return s
			}
			w.fIdx++
			w.fOff = 0
			continue
		}
		size := firstFloatChunk << len(w.fChunks)
		if size < n {
			size = n
		}
		w.fChunks = append(w.fChunks, make([]float64, size))
	}
}
