package campaign

import (
	"fmt"

	"amrproxyio/internal/iosim"
)

// Storage-tier experiments: the paper characterizes the same bursts
// against Summit's node-local NVMe burst buffers and the Alpine GPFS, so
// a Case carries a Storage name (JSON round-tripped like the engine and
// dist), ParseAxis("storage", …) sweeps it, and report.StorageReport
// renders the per-tier comparison.

// Storage names an iosim storage-model stack on a Case. The empty string
// selects the historical single-tier "gpfs" pricing.
type Storage string

// The valid storage names (iosim Storage* selection names).
const (
	StorageDefault Storage = iosim.StorageDefault
	StorageGPFS    Storage = iosim.StorageGPFS
	StorageBB      Storage = iosim.StorageBB
	StorageTiered  Storage = iosim.StorageTiered
)

// ParseStorage validates a storage name, rejecting unknown names the
// same way unknown engines and dists are rejected.
func ParseStorage(name string) (Storage, error) {
	k, err := iosim.ParseStorage(name)
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	return Storage(k), nil
}
