package campaign

import (
	"fmt"

	"amrproxyio/internal/amr"
)

// Distribution-mapping experiments: the paper's Table III campaigns hold
// the AMReX distribution mapping fixed, but under the per-link topology
// model placement is the dominant knob for burst skew. A Case carries a
// Dist name (JSON round-tripped like the engine), ParseAxis("dist", …)
// sweeps it, and report.DistReport renders the per-strategy comparison.

// Dist names a distribution-mapping strategy on a Case. The empty string
// selects the engines' historical knapsack default.
type Dist string

// The valid strategy names (amr.DistStrategy String() forms).
const (
	DistDefault    Dist = ""
	DistRoundRobin Dist = "roundrobin"
	DistKnapsack   Dist = "knapsack"
	DistSFC        Dist = "sfc"
)

// ParseDist validates a strategy name, rejecting unknown names the same
// way unknown engines are rejected.
func ParseDist(name string) (Dist, error) {
	if name == "" {
		return DistDefault, nil
	}
	s, err := amr.ParseDistStrategy(name)
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	return Dist(s.String()), nil
}

// strategy resolves the name for the engines; "" keeps the historical
// knapsack default (sim/surrogate DefaultOptions).
func (d Dist) strategy() (amr.DistStrategy, error) {
	if d == DistDefault {
		return amr.DistKnapsack, nil
	}
	return amr.ParseDistStrategy(string(d))
}
