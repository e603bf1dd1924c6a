package report

import (
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
)

// storageLedger drives two bursts separated by a compute gap through a
// filesystem with the given storage stack and returns the ledger. The
// burst-buffer spec (capacity 100 B, fill 10 B/s, drain 5 B/s, one rank
// per node) makes every quantity a round number.
func storageLedger(t *testing.T, storage string) []iosim.WriteRecord {
	t.Helper()
	cfg := iosim.Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 20,
		Storage:            storage,
		BurstBuffer: iosim.BurstBuffer{
			NodeCapacity:   100,
			NodeBandwidth:  10,
			DrainBandwidth: 5,
			Nodes:          1,
			RanksPerNode:   1,
		},
	}
	fs := iosim.New(cfg, "")
	fs.BeginBurst(1)
	// 100 B: under bb this is 10s with 50 B left to drain (10s tail).
	if _, err := fs.WriteSize(0, "a", 100, iosim.Labels{Step: 0}); err != nil {
		t.Fatal(err)
	}
	fs.EndBurst()
	fs.AdvanceClock(0, 4) // compute gap: 4s of the drain tail overlaps
	fs.BeginBurst(1)
	// Under bb the buffer still holds 30 B; 200 B fills it and stalls.
	if _, err := fs.WriteSize(0, "b", 200, iosim.Labels{Step: 1}); err != nil {
		t.Fatal(err)
	}
	fs.EndBurst()
	return fs.Ledger()
}

func TestSummarizeStorage(t *testing.T) {
	gpfs := SummarizeStorage("gpfs", iosim.Fold(storageLedger(t, iosim.StorageGPFS)))
	if gpfs.Bursts != 2 || gpfs.Bytes != 300 {
		t.Fatalf("gpfs summary = %+v", gpfs)
	}
	if gpfs.BBBytes != 0 || gpfs.SpillBytes != 0 || gpfs.StallRanks != 0 ||
		gpfs.DrainSeconds != 0 || gpfs.OverlapSeconds != 0 {
		t.Errorf("single-tier summary carries buffer fields: %+v", gpfs)
	}
	// 300 B at the 20 B/s stream: 5s + 10s.
	if gpfs.WallSeconds != 15 {
		t.Errorf("gpfs wall = %g, want 15", gpfs.WallSeconds)
	}

	bb := SummarizeStorage("bb", iosim.Fold(storageLedger(t, iosim.StorageBB)))
	if bb.BBBytes != 100 || bb.SpillBytes != 200 {
		t.Errorf("bb tier bytes = %d/%d, want 100/200", bb.BBBytes, bb.SpillBytes)
	}
	if bb.StallRanks != 1 || bb.StallSeconds <= 0 {
		t.Errorf("bb stalls = %d ranks / %gs, want a straggler", bb.StallRanks, bb.StallSeconds)
	}
	if bb.MaxBBFill != 1 {
		t.Errorf("bb peak fill = %g, want 1", bb.MaxBBFill)
	}
	// Burst 0 leaves a 10s drain tail; 4s hide under the compute gap.
	// Burst 1 ends the run full (20s tail, nothing after to overlap).
	if bb.DrainSeconds != 30 || bb.OverlapSeconds != 4 {
		t.Errorf("bb drain/overlap = %g/%g, want 30/4", bb.DrainSeconds, bb.OverlapSeconds)
	}
	if bb.WallSeconds <= gpfs.WallSeconds {
		t.Errorf("bb wall %g <= gpfs wall %g: drain-limited stack should be slower here",
			bb.WallSeconds, gpfs.WallSeconds)
	}
}

func TestStorageReport(t *testing.T) {
	labels := []string{"gpfs", "bb", "bb+gpfs"}
	var sums []StorageSummary
	for _, s := range labels {
		sums = append(sums, SummarizeStorage(s, iosim.Fold(storageLedger(t, s))))
	}
	out := StorageReport(sums)
	for _, want := range []string{"storage", "bb-bytes", "spill", "stall-ranks", "drain", "overlap",
		"gpfs", "bb+gpfs"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "single-tier runs only") {
		t.Error("tiered sweep still prints the single-tier note")
	}
	// The baseline row shows no wall delta marker; the others do.
	if !strings.Contains(out, "%") {
		t.Error("no wall deltas rendered")
	}

	solo := StorageReport(sums[:1])
	if !strings.Contains(solo, "single-tier runs only") {
		t.Errorf("single-tier report lacks the hint:\n%s", solo)
	}
	if StorageReport(nil) != "storage report: no runs\n" {
		t.Error("empty report text changed")
	}
}
