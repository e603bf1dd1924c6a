package campaign

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
)

// TestCaseValidateTable is the consolidated rejection table: every
// unknown-name and out-of-range class goes through the one Validate used
// by Run, RunAll, and the amrio-campaign flag parser, with the offending
// value in the message.
func TestCaseValidateTable(t *testing.T) {
	valid := Case{Name: "v", NCell: 32, MaxStep: 1, PlotInt: 1, CFL: 0.5, NProcs: 2}
	tests := []struct {
		name    string
		mutate  func(*Case)
		wantErr string // empty = must validate
	}{
		{"default", func(c *Case) {}, ""},
		{"explicit engine", func(c *Case) { c.Engine = EngineSurrogate }, ""},
		{"auto engine", func(c *Case) { c.Engine = EngineAuto }, ""},
		{"all dists", func(c *Case) { c.Dist = DistSFC }, ""},
		{"all storages", func(c *Case) { c.Storage = StorageTiered }, ""},
		{"unknown engine", func(c *Case) { c.Engine = "nonsense" }, `unknown engine "nonsense"`},
		{"unknown dist", func(c *Case) { c.Dist = "zorder" }, `"zorder"`},
		{"unknown storage", func(c *Case) { c.Storage = "nvme" }, `unknown storage model "nvme"`},
		{"storage typo", func(c *Case) { c.Storage = "gpfs+bb" }, `"gpfs+bb"`},
		{"bb capacity", func(c *Case) { c.Storage, c.BBCapacity = StorageBB, 2e7 }, ""},
		{"negative bb capacity", func(c *Case) { c.BBCapacity = -1 }, "bb_capacity -1"},
		{"NaN bb capacity", func(c *Case) { c.BBCapacity = math.NaN() }, "bb_capacity NaN"},
		{"infinite bb capacity", func(c *Case) { c.BBCapacity = math.Inf(1) }, "bb_capacity +Inf"},
		{"zero n_cell", func(c *Case) { c.NCell = 0 }, "n_cell 0"},
		{"negative n_cell", func(c *Case) { c.NCell = -32 }, "n_cell -32"},
		{"n_cell off blocking grid", func(c *Case) { c.NCell = 36 }, "n_cell 36 must be a multiple of the blocking factor 8"},
		{"zero nprocs", func(c *Case) { c.NProcs = 0 }, "nprocs 0"},
		{"negative max_step", func(c *Case) { c.MaxStep = -1 }, "max_step -1"},
		{"negative max_level", func(c *Case) { c.MaxLevel = -1 }, "max_level -1"},
		{"zero cfl", func(c *Case) { c.CFL = 0 }, "cfl 0"},
		{"cfl 1", func(c *Case) { c.CFL = 1 }, "cfl 1"},
		{"NaN cfl", func(c *Case) { c.CFL = math.NaN() }, "cfl NaN"},
		{"NaN compute_seconds", func(c *Case) { c.ComputeSeconds = math.NaN() }, "compute_seconds NaN"},
		{"infinite compute_seconds", func(c *Case) { c.ComputeSeconds = math.Inf(1) }, "compute_seconds +Inf"},
	}
	for _, tc := range tests {
		c := valid
		tc.mutate(&c)
		err := c.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want message containing %q", tc.name, err, tc.wantErr)
		}
		// Run and RunAll reject through the same Validate.
		if _, rerr := Run(c, modelFS()); rerr == nil || !strings.Contains(rerr.Error(), tc.wantErr) {
			t.Errorf("%s: Run() = %v, want message containing %q", tc.name, rerr, tc.wantErr)
		}
		if _, raerr := RunAll([]Case{c}, 1, nil); raerr == nil || !strings.Contains(raerr.Error(), tc.wantErr) {
			t.Errorf("%s: RunAll() = %v, want message containing %q", tc.name, raerr, tc.wantErr)
		}
	}
}

func TestCaseStorageJSONRoundTrip(t *testing.T) {
	c := Case4()
	c.Storage = StorageTiered
	c.ComputeSeconds = 0.25
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"storage":"bb+gpfs"`) ||
		!strings.Contains(string(data), `"compute_seconds":0.25`) {
		t.Fatalf("storage/compute_seconds not serialized: %s", data)
	}
	var back Case
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip: %+v != %+v", back, c)
	}
	// Legacy results (no storage key) load as the default stack.
	var legacy Case
	if err := json.Unmarshal([]byte(`{"name":"old","n_cell":64}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Storage != StorageDefault || legacy.ComputeSeconds != 0 {
		t.Errorf("legacy storage = %q compute = %g, want defaults", legacy.Storage, legacy.ComputeSeconds)
	}
}

func TestParseStorageNames(t *testing.T) {
	for _, name := range []string{"gpfs", "bb", "bb+gpfs"} {
		s, err := ParseStorage(name)
		if err != nil || string(s) != name {
			t.Errorf("ParseStorage(%q) = %q, %v", name, s, err)
		}
	}
	if s, err := ParseStorage(""); err != nil || s != StorageDefault {
		t.Errorf("ParseStorage(\"\") = %q, %v", s, err)
	}
	if _, err := ParseStorage("lustre"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestFSConfigStorage pins the Case→iosim wiring: burst-buffer cases get
// the Summit NVMe spec sized to their node count, default cases keep the
// historical configuration, and the topology rides the flag.
func TestFSConfigStorage(t *testing.T) {
	c := Case4() // 32 ranks, 2 nodes
	if got := c.FSConfig(false); got.Storage != "" || got.BurstBuffer != (iosim.BurstBuffer{}) {
		t.Errorf("default FSConfig = %+v", got)
	}
	if got := c.FSConfig(true); !got.Topology.Enabled() {
		t.Error("withTopology did not enable the topology")
	}
	c.Storage = StorageBB
	got := c.FSConfig(false)
	if got.Storage != iosim.StorageBB || got.BurstBuffer.Nodes != 2 {
		t.Errorf("bb FSConfig = %+v", got)
	}
	if got.BurstBuffer.NodeCapacity != iosim.SummitBBNodeCapacity {
		t.Errorf("bb capacity = %g, want Summit default", got.BurstBuffer.NodeCapacity)
	}
	// BBCapacity overrides the per-node capacity of the buffer stacks and
	// leaves the single-tier stack untouched.
	c.BBCapacity = 2e7
	if got := c.FSConfig(false); got.BurstBuffer.NodeCapacity != 2e7 {
		t.Errorf("bb_capacity FSConfig capacity = %g, want 2e7", got.BurstBuffer.NodeCapacity)
	}
	gpfs := c
	gpfs.Storage = StorageGPFS
	if got := gpfs.FSConfig(false); got.BurstBuffer != (iosim.BurstBuffer{}) {
		t.Errorf("gpfs FSConfig with bb_capacity = %+v", got.BurstBuffer)
	}
	// Node-less cases fall back to the 1-node degenerate spec.
	c.Nodes = 0
	if got := c.FSConfig(false); got.BurstBuffer.Nodes != 1 {
		t.Errorf("node-less bb FSConfig nodes = %d, want 1", got.BurstBuffer.Nodes)
	}
}

// TestRunAllDefaultFSHonorsStorage: the Executor builds every filesystem
// from FSConfig, so a Case.Storage selection produces tier-labeled
// ledgers through RunAll — verified indirectly by comparing a RunAll run
// against an explicit FSConfig run.
func TestRunAllDefaultFSHonorsStorage(t *testing.T) {
	c := Case{Name: "bbcase", NCell: 32, MaxLevel: 0, MaxStep: 2, PlotInt: 1,
		CFL: 0.5, NProcs: 2, Nodes: 1, Engine: EngineHydro, Storage: StorageBB}
	results, err := RunAll([]Case{c}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := iosim.New(c.FSConfig(false), "")
	ref, err := Run(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TotalBytes() != ref.TotalBytes() || results[0].NPlots != ref.NPlots {
		t.Fatalf("default-FS run diverged: %+v vs %+v", results[0], ref)
	}
	tiers := 0
	for _, r := range fs.Ledger() {
		if r.Tier != "" {
			tiers++
		}
	}
	if tiers == 0 {
		t.Fatal("bb case produced no tier-labeled records")
	}
}
