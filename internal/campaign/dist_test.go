package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
)

func TestCaseDistJSONRoundTrip(t *testing.T) {
	c := Case4()
	c.Dist = DistSFC
	c.Remap = true
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"dist":"sfc"`) || !strings.Contains(string(data), `"remap":true`) {
		t.Fatalf("dist/remap not serialized: %s", data)
	}
	var back Case
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip: %+v != %+v", back, c)
	}
	// Legacy results (no dist key) load as the default strategy.
	var legacy Case
	if err := json.Unmarshal([]byte(`{"name":"old","n_cell":64}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Dist != DistDefault {
		t.Errorf("legacy dist = %q, want default", legacy.Dist)
	}
}

func TestRunRejectsUnknownDist(t *testing.T) {
	c := Case{Name: "bad_dist", NCell: 32, MaxStep: 1, PlotInt: 1,
		CFL: 0.5, NProcs: 2, Engine: EngineHydro, Dist: "zorder"}
	_, err := Run(c, modelFS())
	if err == nil || !strings.Contains(err.Error(), "zorder") {
		t.Fatalf("unknown dist error = %v, want name in message", err)
	}
}

func TestParseDist(t *testing.T) {
	for _, name := range []string{"roundrobin", "knapsack", "sfc"} {
		d, err := ParseDist(name)
		if err != nil || string(d) != name {
			t.Errorf("ParseDist(%q) = %q, %v", name, d, err)
		}
	}
	if d, err := ParseDist(""); err != nil || d != DistDefault {
		t.Errorf("ParseDist(\"\") = %q, %v", d, err)
	}
	if _, err := ParseDist("hilbert"); err == nil {
		t.Error("unknown name accepted")
	}
}

// distFixture is a refined case small enough for the hydro engine; the
// refined levels give the strategies different per-rank placements.
func distFixture(engine Engine) Case {
	c := Case{Name: "dist_fix", NCell: 64, MaxLevel: 2, MaxStep: 8, PlotInt: 4,
		CFL: 0.5, NProcs: 8, Nodes: 2, Engine: engine}
	if engine == EngineSurrogate {
		c.NCell = 512
		c.NProcs = 16
	}
	return c
}

// TestEnginesHonorDist: for both engines, different strategies must
// produce different per-rank byte distributions (the whole point of the
// sweep), and the same strategy must reproduce itself exactly
// (determinism). The rank count deliberately does not divide the box
// counts: on the 4-fold-symmetric Sedov hierarchy, divisible layouts
// give every strategy the same per-rank byte totals even though the
// box→rank pairings differ.
func TestEnginesHonorDist(t *testing.T) {
	for _, engine := range []Engine{EngineHydro, EngineSurrogate} {
		perRank := func(d Dist) map[int]int64 {
			c := distFixture(engine)
			c.NProcs = 3
			c.Dist = d
			fs := modelFS()
			if _, err := Run(c, fs); err != nil {
				t.Fatal(err)
			}
			byRank := map[int]int64{}
			for _, r := range fs.Ledger() {
				byRank[r.Rank] += r.Bytes
			}
			return byRank
		}
		rr := perRank(DistRoundRobin)
		sfc := perRank(DistSFC)
		if reflect.DeepEqual(rr, sfc) {
			t.Errorf("%s: roundrobin and sfc produced identical per-rank bytes", engine)
		}
		if again := perRank(DistRoundRobin); !reflect.DeepEqual(rr, again) {
			t.Errorf("%s: same strategy not deterministic", engine)
		}
		// The default matches the explicit knapsack name.
		if def, ks := perRank(DistDefault), perRank(DistKnapsack); !reflect.DeepEqual(def, ks) {
			t.Errorf("%s: default dist is not knapsack", engine)
		}
	}
}

// skewTopoFS builds a filesystem whose topology has few targets relative
// to ranks, so per-target fan-in is sensitive to placement.
func skewTopoFS(targets int) *iosim.FileSystem {
	cfg := iosim.DefaultConfig()
	cfg.Topology = iosim.Topology{
		Nodes: 2, RanksPerNode: 4,
		NICBandwidth: 25e9,
		Targets:      targets, TargetBandwidth: 2e9,
	}
	return iosim.New(cfg, "")
}

func maxTargetBytes(ledger []iosim.WriteRecord) int64 {
	per := map[int]int64{}
	for _, r := range ledger {
		if r.Target >= 0 {
			per[r.Target] += r.Bytes
		}
	}
	var m int64
	for _, b := range per {
		if b > m {
			m = b
		}
	}
	return m
}

// TestRemapReducesFanInEndToEnd is the acceptance criterion: on a skewed
// fixture (round-robin placement over a refined hierarchy, 3 storage
// targets for 8 ranks) the inter-burst reorganization must reduce the
// max per-target byte fan-in.
func TestRemapReducesFanInEndToEnd(t *testing.T) {
	run := func(remap bool) []iosim.WriteRecord {
		c := distFixture(EngineHydro)
		c.Dist = DistRoundRobin // skewed per-rank loads on refined levels
		c.Remap = remap
		fs := skewTopoFS(3)
		if _, err := Run(c, fs); err != nil {
			t.Fatal(err)
		}
		return fs.Ledger()
	}
	plain := maxTargetBytes(run(false))
	remapped := maxTargetBytes(run(true))
	if plain == 0 {
		t.Fatal("fixture produced no target-labeled bytes")
	}
	if remapped >= plain {
		t.Fatalf("remap max target fan-in %d >= plain %d: no improvement", remapped, plain)
	}
}

// TestRemapIdentityLedger: on a uniform hierarchy (single level, equal
// boxes, one box per rank) the remap resolves to the round-robin
// identity and the ledger stays byte-identical to a non-remapped run.
func TestRemapIdentityLedger(t *testing.T) {
	run := func(remap bool) []iosim.WriteRecord {
		c := Case{Name: "uniform", NCell: 64, MaxLevel: 0, MaxStep: 4, PlotInt: 2,
			CFL: 0.5, NProcs: 4, Engine: EngineHydro, Remap: remap}
		fs := skewTopoFS(4)
		if _, err := Run(c, fs); err != nil {
			t.Fatal(err)
		}
		return fs.Ledger()
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("identity remap changed the ledger on a uniform hierarchy")
	}
}

// TestRemapZeroTopologyLedger: without a topology the remap hook is a
// no-op and ledgers stay byte-identical (the PR-3 aggregate pin).
func TestRemapZeroTopologyLedger(t *testing.T) {
	run := func(remap bool) []iosim.WriteRecord {
		c := distFixture(EngineHydro)
		c.Remap = remap
		fs := modelFS()
		if _, err := Run(c, fs); err != nil {
			t.Fatal(err)
		}
		return fs.Ledger()
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("remap changed the ledger under the aggregate model")
	}
}
