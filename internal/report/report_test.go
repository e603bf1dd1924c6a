package report

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
)

func TestPlotRenderBasics(t *testing.T) {
	p := NewPlot("title", "xx", "yy")
	p.Add("s1", []float64{0, 1, 2}, []float64{0, 1, 4})
	out := p.Render()
	for _, want := range []string{"title", "xx", "yy", "s1", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPlotLogScalesSkipNonPositive(t *testing.T) {
	p := NewPlot("log", "x", "y")
	p.LogX, p.LogY = true, true
	p.Add("s", []float64{0, 10, 100}, []float64{-1, 10, 1000})
	out := p.Render()
	if strings.Contains(out, "(no data)") {
		t.Error("positive points should render")
	}
	// Only non-positive data -> no data.
	q := NewPlot("empty", "x", "y")
	q.LogY = true
	q.Add("s", []float64{1}, []float64{0})
	if !strings.Contains(q.Render(), "(no data)") {
		t.Error("expected no data for all-non-positive log series")
	}
}

func TestPlotEmptyAndConstant(t *testing.T) {
	p := NewPlot("none", "x", "y")
	if !strings.Contains(p.Render(), "(no data)") {
		t.Error("empty plot should say so")
	}
	c := NewPlot("const", "x", "y")
	c.Add("s", []float64{1, 2}, []float64{5, 5})
	if strings.Contains(c.Render(), "(no data)") {
		t.Error("constant series must render")
	}
}

func TestPlotCSV(t *testing.T) {
	p := NewPlot("t", "x", "y")
	p.Add("a", []float64{1}, []float64{2})
	p.Add("b", []float64{3}, []float64{4})
	csv := p.CSV()
	if !strings.HasPrefix(csv, "series,x,y\n") {
		t.Errorf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "a,1,2") || !strings.Contains(csv, "b,3,4") {
		t.Errorf("csv rows: %q", csv)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"col", "x"}, [][]string{{"longvalue", "1"}, {"s", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[2]) < len("longvalue") {
		t.Error("column not padded")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2048:          "2.05 KB",
		1500000:       "1.5 MB",
		3_000_000_000: "3 GB",
		1.4e12:        "1.4 TB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestStaticTables(t *testing.T) {
	t1 := TableI()
	for _, param := range []string{"amr.max_step", "amr.n_cell", "amr.max_level", "amr.plot_int", "castro.cfl"} {
		if !strings.Contains(t1, param) {
			t.Errorf("Table I missing %s", param)
		}
	}
	t2 := TableII()
	for _, arg := range []string{"interface", "parallel_file_mode", "num_dumps", "part_size",
		"avg_num_parts", "vars_per_part", "compute_time", "meta_size", "dataset_growth"} {
		if !strings.Contains(t2, arg) {
			t.Errorf("Table II missing %s", arg)
		}
	}
}

// fakeResult builds a Result with a synthetic growing ledger.
func fakeResult(name string, ncell, nprocs, nsteps, levels int, growth float64) campaign.Result {
	c := campaign.Case{Name: name, NCell: ncell, NProcs: nprocs, MaxLevel: levels - 1,
		MaxStep: nsteps * 10, PlotInt: 10, CFL: 0.4}
	var recs []plotfile.OutputRecord
	for k := 0; k < nsteps; k++ {
		for l := 0; l < levels; l++ {
			for rank := 0; rank < nprocs; rank++ {
				b := int64(float64((l+1)*50000) * math.Pow(growth, float64(k)) * float64(1+rank%3))
				recs = append(recs, plotfile.OutputRecord{Step: k * 10, Level: l, Rank: rank, Bytes: b})
			}
		}
	}
	return campaign.Result{Case: c, Engine: campaign.EngineHydro, Records: recs, NPlots: nsteps}
}

func TestFig5Fig6Fig7(t *testing.T) {
	r1 := fakeResult("a", 128, 4, 6, 2, 1.01)
	r2 := fakeResult("b", 256, 8, 6, 3, 1.05)
	if out := Fig5([]campaign.Result{r1, r2}).Render(); !strings.Contains(out, "Fig. 5") {
		t.Error("Fig5 render broken")
	}
	if out := Fig6([]campaign.Result{r1, r2}).Render(); !strings.Contains(out, "cfl0.4_maxl1") {
		t.Errorf("Fig6 legend missing:\n%s", out)
	}
	p7 := Fig7(r1)
	out := p7.Render()
	if !strings.Contains(out, "L0") || !strings.Contains(out, "L1") {
		t.Errorf("Fig7 levels missing:\n%s", out)
	}
}

func TestFig8ImbalanceDetected(t *testing.T) {
	r := fakeResult("c27", 128, 8, 3, 2, 1.0)
	plot, imbalance := Fig8(r, 1)
	if !strings.Contains(plot.Render(), "Fig. 8") {
		t.Error("Fig8 render broken")
	}
	// ranks get 1x..3x weights -> imbalance > 1.
	if !(imbalance > 1.0) {
		t.Errorf("imbalance = %g, want > 1", imbalance)
	}
}

func TestFig9Fig10Fig11(t *testing.T) {
	measured := make([]int64, 10)
	for k := range measured {
		measured[k] = int64(1e6 * math.Pow(1.0131, float64(k)))
	}
	model, trace := core.CalibrateGrowth(measured, 1e6, 1.0, 1.05)
	if out := Fig9(measured, trace, 1e6).Render(); !strings.Contains(out, "measured") {
		t.Error("Fig9 missing measured series")
	}

	r := fakeResult("case4_cfl4_maxl4", 512, 4, 8, 3, 1.013)
	cfg := r.Case.Inputs()
	tr, err := core.Translate(cfg, r.Records, core.DefaultTranslateOptions())
	if err != nil {
		t.Fatal(err)
	}
	plot, mapes := Fig10([]campaign.Result{r}, []core.Translation{tr})
	if !strings.Contains(plot.Render(), "model") {
		t.Error("Fig10 missing model series")
	}
	if len(mapes) != 1 || mapes[0] > 5 {
		t.Errorf("Fig10 MAPE = %v, expected tight fit on synthetic growth", mapes)
	}

	p11, mape := Fig11(r, model)
	if !strings.Contains(p11.Render(), "kernel") {
		t.Error("Fig11 missing kernel series")
	}
	if math.IsNaN(mape) {
		t.Error("Fig11 MAPE NaN")
	}
}

// TestPathLogListsRankMajor: the stream arrives burst by burst, but the
// log lists each rank's data paths in program order, rank by rank — the
// order a retained ledger lists the same run in — and skips directories.
func TestPathLogListsRankMajor(t *testing.T) {
	write := func(fs *iosim.FileSystem) {
		for step := 0; step < 2; step++ {
			fs.BeginBurst(2)
			dir := fmt.Sprintf("plt%05d", step)
			fs.Mkdir(0, dir, iosim.Labels{Step: step})
			for rank := 1; rank >= 0; rank-- {
				fs.WriteSize(rank, fmt.Sprintf("%s/Cell_D_%05d", dir, rank), 100, iosim.Labels{Step: step})
			}
			fs.EndBurst()
		}
		fs.FlushConsumers()
	}
	streamed, log := iosim.New(iosim.DefaultConfig(), ""), new(PathLog)
	streamed.Attach(log)
	write(streamed)
	retained := iosim.New(iosim.DefaultConfig(), "")
	write(retained)
	var want []string
	for _, r := range retained.Ledger() {
		if !r.Dir {
			want = append(want, r.Path)
		}
	}
	if got := log.Paths(); !reflect.DeepEqual(got, want) {
		t.Errorf("Paths() = %q, want the ledger's %q", got, want)
	}
	if want[0] != "plt00000/Cell_D_00000" || want[1] != "plt00001/Cell_D_00000" {
		t.Errorf("ledger order %q is not rank-major", want)
	}
}

func TestFig2Fig3FromPathLog(t *testing.T) {
	fs, log := iosim.New(iosim.DefaultConfig(), ""), new(PathLog)
	fs.Attach(log)
	fs.Mkdir(0, "plt00000", iosim.Labels{})
	fs.WriteSize(0, "plt00000/Header", 100, iosim.Labels{})
	fs.WriteSize(0, "plt00000/Level_0/Cell_D_00000", 1000, iosim.Labels{})
	fs.FlushConsumers()
	out := Fig2(log.Paths())
	if !strings.Contains(out, "plt00000") || !strings.Contains(out, "Level_0/Cell_D_00000") {
		t.Errorf("Fig2:\n%s", out)
	}
	out3 := Fig3([]string{"macsio_json_00000_000.json", "macsio_json_root_000.json"})
	if !strings.Contains(out3, "data") || !strings.Contains(out3, "metadata") {
		t.Errorf("Fig3:\n%s", out3)
	}
	if strings.Index(out3, "macsio_json_00000_000.json") > strings.Index(out3, "metadata") {
		t.Error("data file listed under metadata")
	}
}

func TestTableIIIRendersResults(t *testing.T) {
	r := fakeResult("x", 64, 2, 2, 2, 1.0)
	out := TableIII([]campaign.Result{r})
	if !strings.Contains(out, "64x64") || !strings.Contains(out, "hydro") {
		t.Errorf("TableIII:\n%s", out)
	}
}

func TestListing1AndBurstReport(t *testing.T) {
	r := fakeResult("case4", 512, 4, 8, 3, 1.012)
	tr, err := core.Translate(r.Case.Inputs(), r.Records, core.DefaultTranslateOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := Listing1(tr, 32)
	if !strings.Contains(out, "jsrun -n 32") || !strings.Contains(out, "--dataset_growth") {
		t.Errorf("Listing1:\n%s", out)
	}
	fs, fold := iosim.New(iosim.DefaultConfig(), ""), iosim.NewCharacterizeFold()
	fs.Attach(fold)
	fs.WriteSize(0, "a", 1e6, iosim.Labels{Step: 0})
	fs.WriteSize(1, "b", 2e6, iosim.Labels{Step: 0})
	fs.FlushConsumers()
	br := BurstReport(fold.Bursts())
	if !strings.Contains(br, "step") || !strings.Contains(br, "3 MB") {
		t.Errorf("BurstReport:\n%s", br)
	}
}
