// Package bad is the known-bad fixture for vet.Check's tests: it
// violates three different analyzers (nondeterm, boxarraylit,
// ledgerretain) so a passing run proves the suite is actually wired in.
package bad

import (
	"time"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// Stamp uses wall-clock time in simulation-scoped code.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// RawBoxArray bypasses NewBoxArray, leaving the lazy index holder nil.
func RawBoxArray(boxes []grid.Box) amr.BoxArray {
	return amr.BoxArray{Boxes: boxes}
}

// MaterializeLedger rematerializes the full write ledger in a
// streaming-scoped path.
func MaterializeLedger(fs *iosim.FileSystem) []iosim.WriteRecord {
	return fs.Ledger()
}
