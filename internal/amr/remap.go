package amr

import (
	"cmp"
	"slices"

	"amrproxyio/internal/iosim"
)

// Inter-burst layout reorganization (Wan et al., "Improving I/O
// Performance for Exascale Applications through Online Data Layout
// Reorganization"): instead of the static round-robin rank%Targets
// placement GPFS striping produces, ranks are repacked onto storage
// targets between checkpoint/plot bursts so each target's byte fan-in
// matches the load the distribution mapping actually put on each rank.

// RemapToTargets builds a rank→storage-target map for the upcoming I/O
// burst. dm and loads describe the burst in the shape the AMR hierarchy
// produces: loads[i] is the write volume of box i (cells or bytes) and
// dm.Owner[i] its writing rank — pass the concatenation over levels for
// a multi-level dump. The greedy is LPT: heaviest rank first onto the
// least-loaded target (ties to the lowest target index), which keeps the
// max per-target fan-in within the classic 4/3 bound of optimal.
//
// A nil result means "keep the round-robin layout": topologies without
// target modeling, empty bursts, and — because LPT's bound is relative
// to optimal, not to round-robin, so the greedy can occasionally land
// above the incumbent — any burst where LPT does not strictly reduce
// the max per-target fan-in. That final comparison makes the invariant
// "remap never worsens fan-in" true by construction, and since uniform
// loads tie LPT with round-robin, it also keeps balanced hierarchies on
// the identity layout (both pinned by tests). A non-nil result covers
// ranks 0..maxOwner; install it with iosim.FileSystem.Retarget (or
// Topology.TargetMap). Ranks beyond the map fall back to round-robin
// there.
func RemapToTargets(dm DistributionMapping, topo iosim.Topology, loads []int64) []int {
	if !topo.Enabled() || topo.Targets <= 0 {
		return nil
	}
	perRank := rankLoads(dm, loads)
	if perRank == nil {
		return nil
	}
	out := lpt(perRank, newLeastLoaded(topo.Targets, nil))
	if maxLoad(FanInLoads(perRank, out, topo.Targets)) >= maxLoad(FanInLoads(perRank, nil, topo.Targets)) {
		return nil // LPT did not beat the incumbent round-robin layout
	}
	return out
}

// RemapToTargetsAvoiding is RemapToTargets with a quarantine set: ranks
// are packed only onto targets not in avoid (the resilience engine's
// open circuit breakers). With an empty avoid it delegates to
// RemapToTargets unchanged, preserving that function's never-worsens
// invariant; with a non-empty avoid the incumbent comparison is
// deliberately skipped — routing around a degraded target matters more
// than fan-in, since every write landing on it pays the retry storm
// (or, mitigated, still loses its share of the healthy fan-out). When
// every target is quarantined there is nowhere to route, so it falls
// back to the plain remap.
func RemapToTargetsAvoiding(dm DistributionMapping, topo iosim.Topology, loads []int64, avoid map[int]bool) []int {
	if len(avoid) == 0 {
		return RemapToTargets(dm, topo, loads)
	}
	if !topo.Enabled() || topo.Targets <= 0 {
		return nil
	}
	healthy := newLeastLoaded(topo.Targets, avoid)
	if len(healthy) == 0 {
		return RemapToTargets(dm, topo, loads)
	}
	perRank := rankLoads(dm, loads)
	if perRank == nil {
		return nil
	}
	return lpt(perRank, healthy)
}

// rankLoads sums loads by owning rank over ranks 0..max owner, or
// returns nil when no box has an owner.
func rankLoads(dm DistributionMapping, loads []int64) []int64 {
	nprocs := 0
	for _, o := range dm.Owner {
		nprocs = max(nprocs, o+1)
	}
	if nprocs == 0 {
		return nil
	}
	perRank := make([]int64, nprocs)
	for i, o := range dm.Owner {
		if o >= 0 && i < len(loads) {
			perRank[o] += loads[i]
		}
	}
	return perRank
}

// lpt places ranks onto targets heaviest first (load descending, rank
// ascending on ties, which is what makes uniform loads reproduce the
// round-robin identity), each onto the least-loaded target, ties to the
// one holding fewer ranks and then the lowest index.
func lpt(perRank []int64, targets leastLoaded) []int {
	order := make([]int, len(perRank))
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(perRank[b], perRank[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]int, len(perRank))
	for _, r := range order {
		out[r] = targets.place(perRank[r])
	}
	return out
}

func maxLoad(loads []int64) int64 {
	var m int64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}

// FanInLoads accumulates per-target load under a rank→target map (nil
// selects round-robin), the quantity RemapToTargets balances; reports
// and tests use it to compare layouts.
func FanInLoads(perRank []int64, targetMap []int, targets int) []int64 {
	if targets <= 0 {
		return nil
	}
	out := make([]int64, targets)
	for r, l := range perRank {
		tgt := r % targets
		if r < len(targetMap) && targetMap[r] >= 0 && targetMap[r] < targets {
			tgt = targetMap[r]
		}
		out[tgt] += l
	}
	return out
}
