// Package incr holds the process-wide switch for the temporal-coherence
// incremental frame engine. The engine trades redundant recomputation for
// cached state under an exactness contract: every fast path must produce
// bit-identical results to the full recompute it replaces, so enabling or
// disabling it can never change a single byte of simulator output.
//
// MMR_INCREMENTAL=off pins the whole repo to the full-recompute oracle: CI
// diffs the stdout of both modes against each other, and
// `MMR_INCREMENTAL=off go test ./...` runs the suite without any reuse fast
// path.
package incr

import "os"

// Enabled reports whether the incremental fast paths are active. Read once
// at init so per-slot hot paths never touch the environment.
var Enabled = os.Getenv("MMR_INCREMENTAL") != "off"
