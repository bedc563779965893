package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans live in memory until the run ends; nothing inside the program is
// instrumented.
type span struct {
	Name   string `json:"name"`   // "<layer>.<call>", e.g. "metro.AdvanceFrame"
	ID     int    `json:"id"`     // index in the run's span list
	Parent int    `json:"parent"` // enclosing span's ID, -1 at top level
	Req    int    `json:"req"`    // control request the span belongs to, -1 if none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans when on; when off every method is a no-op, so the
// untraced run executes the same code path minus the recording.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// begin opens a span nested in the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: -1,
		Start: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned (which must be the innermost open one).
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// addRequest records a finished control request measured on a load
// generator goroutine, merged after the generator has stopped.
func (t *tracer) addRequest(name string, req int, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: -1, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// durations returns the durations, in the given unit, of every span named
// name whose parent is the span parent.
func (t *tracer) durations(parent int, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
