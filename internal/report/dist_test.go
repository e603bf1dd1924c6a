package report

import (
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
)

// distLedger synthesizes a topology-labeled two-burst ledger where the
// given rank weight skews durations and target fan-in.
func distLedger(heavy float64) []iosim.WriteRecord {
	var out []iosim.WriteRecord
	for step := 0; step < 2; step++ {
		for r := 0; r < 4; r++ {
			d := 1.0
			if r == 0 {
				d = heavy
			}
			out = append(out, iosim.WriteRecord{
				Rank: r, Path: "plt/Cell_D", Bytes: int64(1e6 * d),
				Start: float64(step), Duration: d,
				Labels: iosim.Labels{Step: step * 10},
				Node:   r / 2, Target: r % 2,
			})
		}
	}
	return out
}

func TestSummarizeDist(t *testing.T) {
	s := SummarizeDist("roundrobin", iosim.Fold(distLedger(3)))
	if s.Dist != "roundrobin" || s.Bursts != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MaxLinkSkew <= 1 || s.MaxNodeSkew <= 1 {
		t.Errorf("skews not detected: %+v", s)
	}
	if s.TargetsUsed != 2 || s.TargetImbalance <= 1 {
		t.Errorf("target fan-in not detected: %+v", s)
	}
	if s.WallSeconds != 2*3 { // per burst, the heavy rank sets the wall
		t.Errorf("wall = %g, want 6", s.WallSeconds)
	}

	// Unlabeled ledger: topology fields stay zero.
	plain := distLedger(2)
	for i := range plain {
		plain[i].Node, plain[i].Target = -1, -1
	}
	if p := SummarizeDist("knapsack", iosim.Fold(plain)); p.MaxLinkSkew != 0 || p.TargetsUsed != 0 {
		t.Errorf("aggregate summary carries topology fields: %+v", p)
	}
}

func TestDistReport(t *testing.T) {
	sums := []DistSummary{
		SummarizeDist("roundrobin", iosim.Fold(distLedger(4))),
		SummarizeDist("sfc", iosim.Fold(distLedger(2))),
	}
	out := DistReport(sums)
	for _, want := range []string{"roundrobin", "sfc", "link-skew", "dwall", "dskew", "tgt-imb"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The sfc run is faster than the roundrobin baseline: a negative
	// wall delta must appear.
	if !strings.Contains(out, "-") || strings.Contains(out, "aggregate model") {
		t.Errorf("deltas/labels wrong:\n%s", out)
	}

	// Aggregate-model summaries get the explanatory note.
	plain := distLedger(2)
	for i := range plain {
		plain[i].Node, plain[i].Target = -1, -1
	}
	noTopo := DistReport([]DistSummary{SummarizeDist("roundrobin", iosim.Fold(plain))})
	if !strings.Contains(noTopo, "aggregate model") {
		t.Errorf("missing aggregate note:\n%s", noTopo)
	}
	if !strings.Contains(DistReport(nil), "no runs") {
		t.Error("empty report")
	}
}
