package iosim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomFoldStream returns a record stream shaped like the FileSystem's
// drain — bursts, ascending rank within a burst, each rank's records in
// program order — with the irregularities the dense fold must absorb:
// steps that repeat or arrive out of order, ranks whose target changes
// mid-run (failover, retarget), ranks without a node, directory
// records, zero durations and zero-byte writes, and paths that repeat
// across ranks and bursts (SIF mode). It keeps the three ledger facts
// CharacterizeFold rests on. reads marks the record counts after which
// a caller reads the fold mid-stream.
func randomFoldStream(rng *rand.Rand) (recs []WriteRecord, reads map[int]bool) {
	nranks := 1 + rng.Intn(24)
	nodes, targets := 1+rng.Intn(6), 1+rng.Intn(5)
	node := make([]int, nranks)
	target := make([]int, nranks)
	clock := make([]float64, nranks)
	for r := range node {
		node[r], target[r] = r%nodes, rng.Intn(targets)
		if rng.Intn(5) == 0 {
			node[r], target[r] = -1, -1 // no topology label
		}
	}
	reads = map[int]bool{}
	dur := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Float64()
	}
	for burst, nbursts := 0, 1+rng.Intn(8); burst < nbursts; burst++ {
		step := rng.Intn(6) * 10 // repeats and out-of-order steps
		for r := 0; r < nranks; r++ {
			if rng.Intn(4) == 0 {
				continue // sits the burst out
			}
			if node[r] >= 0 && rng.Intn(3) == 0 {
				target[r] = rng.Intn(targets) // failover or retarget
			}
			for k, n := 0, 1+rng.Intn(3); k < n; k++ {
				rec := WriteRecord{
					Rank: r, Start: clock[r], Duration: dur(),
					Labels: Labels{Step: step, Level: rng.Intn(3)},
					Node:   node[r], Target: -1,
				}
				if r == 0 && rng.Intn(3) == 0 {
					rec.Dir = true
					rec.Path = fmt.Sprintf("plt%05d", step)
					rec.OpenSeconds = rec.Duration
				} else {
					rec.Path = fmt.Sprintf("plt%05d/Cell_D_%05d", step, rng.Intn(nranks+1)/2)
					rec.Bytes = int64(rng.Intn(3)) << uint(rng.Intn(20))
					rec.Target = target[r]
					rec.GatherSeconds = rec.Duration * rng.Float64() / 2
					if rng.Intn(2) == 0 {
						rec.OpenSeconds = rec.Duration * rng.Float64() / 2
					}
					switch rng.Intn(3) {
					case 1:
						rec.Tier, rec.BBFill = TierBB, rng.Float64()
					case 2:
						rec.Tier, rec.StallSeconds, rec.DrainSeconds = TierGPFS, dur(), dur()
					}
					if rng.Intn(5) == 0 {
						rec.Fault, rec.Retries, rec.FaultSeconds = "target-outage", rng.Intn(3), dur()
					}
				}
				clock[r] += rec.Duration
				recs = append(recs, rec)
				if rng.Intn(40) == 0 {
					reads[len(recs)] = true
				}
			}
		}
		if rng.Intn(3) == 0 {
			reads[len(recs)] = true
		}
	}
	return recs, reads
}

// foldReadout is every reduction a report reads off a fold.
type foldReadout struct {
	Profile                 Characterization
	Bursts                  []BurstStat
	TargetBytes             map[int]int64
	Nodes                   map[int]NodeLoad
	Gather, Open, WriteTime float64
	Spans                   []StepSpan
}

type readableFold interface {
	Profile() Characterization
	Bursts() []BurstStat
	TargetBytes() map[int]int64
	Nodes() map[int]NodeLoad
	DurationSplit() (float64, float64, float64)
	StepSpan(int) StepSpan
}

func readFold(f readableFold) foldReadout {
	out := foldReadout{
		Profile: f.Profile(), Bursts: f.Bursts(),
		TargetBytes: f.TargetBytes(), Nodes: f.Nodes(),
	}
	out.Gather, out.Open, out.WriteTime = f.DurationSplit()
	for step := -10; step <= 60; step += 5 {
		out.Spans = append(out.Spans, f.StepSpan(step))
	}
	return out
}

// TestFoldMatchesMapReference pins the dense fold — cached step, dense
// link ids, per-step link slices — to the map-keyed fold it replaced
// (fold_reference_test.go): over random streams, every reduction must
// be DeepEqual after every mid-stream read and at the end.
func TestFoldMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 300; trial++ {
		recs, reads := randomFoldStream(rng)
		f, ref := NewCharacterizeFold(), newRefFold()
		for i, r := range recs {
			f.Consume(r)
			ref.Consume(r)
			if reads[i+1] {
				if got, want := readFold(f), readFold(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, after record %d of %d:\n got %+v\nwant %+v", trial, i+1, len(recs), got, want)
				}
			}
		}
		if got, want := readFold(f), readFold(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, end of %d records:\n got %+v\nwant %+v", trial, len(recs), got, want)
		}
	}
}

// TestPathDigestDistinct: the digest UniqueFiles counts by tells apart
// every path of a wide run's shapes — plotfile Cell_D and metadata
// names over steps, levels and ranks, MACSio MIF and SIF names — and
// every length-prefix of one path.
func TestPathDigestDistinct(t *testing.T) {
	seen := map[uint64]string{}
	add := func(p string) {
		h := pathDigest(p)
		if q, dup := seen[h]; dup && q != p {
			t.Fatalf("pathDigest(%q) == pathDigest(%q)", p, q)
		}
		seen[h] = p
	}
	for step := 0; step < 200; step += 2 {
		root := fmt.Sprintf("summit-gpfs-direct-clean-cfl4_plt%05d", step)
		add(root)
		add(root + "/Header")
		for level := 0; level < 3; level++ {
			add(fmt.Sprintf("%s/Level_%d/Cell_H", root, level))
			for rank := 0; rank < 512; rank++ {
				add(fmt.Sprintf("%s/Level_%d/Cell_D_%05d", root, level, rank))
			}
		}
		for rank := 0; rank < 512; rank++ {
			add(fmt.Sprintf("macsio_json_%05d_%03d.json", rank, step))
		}
		add(fmt.Sprintf("macsio_json_%03d.json", step))
	}
	long := "summit-tiered-1node-sif-async-faulted-cfl5_chk00198/Level_2/Cell_D_00511"
	for n := 0; n <= len(long); n++ {
		add(long[:n])
	}
}
