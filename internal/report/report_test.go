package report

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
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

// TestPlotRenderShowsEverySeries: on random series, every point's cell
// shows its own series' marker or the collision marker, and the legend
// names the collision marker exactly when two series share a cell. A
// 65x17 grid with points at integer coordinates spanning it maps each
// point to its cell exactly.
func TestPlotRenderShowsEverySeries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const w, h = 65, 17
	for trial := 0; trial < 200; trial++ {
		p := NewPlot("t", "x", "y")
		p.Width, p.Height = w, h
		owners := map[[2]int]map[int]bool{}
		nseries := 1 + rng.Intn(14)
		for si := 0; si < nseries; si++ {
			var xs, ys []float64
			for i := rng.Intn(12); i >= 0; i-- {
				xs, ys = append(xs, float64(rng.Intn(w))), append(ys, float64(rng.Intn(h)))
			}
			if si == 0 { // span the grid so the axes run 0..w-1 and 0..h-1
				xs, ys = append(xs, 0, w-1), append(ys, 0, h-1)
			}
			for i := range xs {
				cell := [2]int{int(xs[i]), int(ys[i])}
				if owners[cell] == nil {
					owners[cell] = map[int]bool{}
				}
				owners[cell][si] = true
			}
			p.Add(fmt.Sprintf("s%d", si), xs, ys)
		}
		out := p.Render()
		rows := strings.Split(out, "\n")[1 : 1+h]
		shared := false
		for cell, series := range owners {
			got := rows[h-1-cell[1]][11+cell[0]]
			for si := range series {
				if got != markers[si%len(markers)] && got != collision {
					t.Fatalf("trial %d: cell %v of series %d shows %q\n%s", trial, cell, si, got, out)
				}
			}
			if len(series) > 1 {
				shared = true
				if got != collision {
					t.Fatalf("trial %d: cell %v shared by %d series shows %q\n%s", trial, cell, len(series), got, out)
				}
			}
		}
		if legend := strings.Contains(out, "! two or more series"); legend != shared {
			t.Fatalf("trial %d: collision legend printed = %v, want %v\n%s", trial, legend, shared, out)
		}
	}
}

// TestPlotPanels: a paneled plot renders its title, then for each panel
// the panel's title and exactly the grid a plot of that panel's series
// alone draws (series added before the first Panel call come first,
// untitled), and its CSV is the CSV of the same series without panels.
func TestPlotPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	paneled, flat := NewPlot("T", "x", "y"), NewPlot("T", "x", "y")
	want := "T\n"
	for pi := 0; pi < 3; pi++ {
		alone := NewPlot("", "x", "y")
		if pi > 0 {
			title := fmt.Sprintf("(%c) panel", 'a'+pi)
			paneled.Panel(title)
			want += "\n" + title + "\n"
		}
		for si := 0; si < 1+rng.Intn(3); si++ {
			xs, ys := []float64{0, 1, 2}, []float64{rng.Float64(), rng.Float64(), 10 * rng.Float64()}
			name := fmt.Sprintf("p%d_s%d", pi, si)
			paneled.Add(name, xs, ys)
			flat.Add(name, xs, ys)
			alone.Add(name, xs, ys)
		}
		want += alone.Render()
	}
	if got := paneled.Render(); got != want {
		t.Errorf("paneled render:\n%s\nwant:\n%s", got, want)
	}
	if paneled.CSV() != flat.CSV() {
		t.Errorf("panels changed the CSV:\n%s\nwant:\n%s", paneled.CSV(), flat.CSV())
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
		MaxStep: (nsteps - 1) * 10, PlotInt: 10, CFL: 0.4}
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
	rp, err := core.ReplayRun(r.Case.Inputs(), r.Records)
	if err != nil {
		t.Fatal(err)
	}
	out := Fig10([]campaign.Result{r}, []core.Replay{rp}).Render()
	for _, series := range []string{"(a) cfl0.4_maxl2\n", "cfl0.4_maxl2_measured", "cfl0.4_maxl2_model", "cfl0.4_maxl2_proxy"} {
		if !strings.Contains(out, series) {
			t.Errorf("Fig10 missing series %s:\n%s", series, out)
		}
	}
	if rp.Translation.MAPE > 5 {
		t.Errorf("kernel MAPE = %.2f%%, expected tight fit on synthetic growth", rp.Translation.MAPE)
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
	rp, err := core.ReplayRun(r.Case.Inputs(), r.Records)
	if err != nil {
		t.Fatal(err)
	}
	out := Listing1(r, rp)
	for _, want := range []string{"jsrun -n 4 macsio ", "--dataset_growth", "fitted to file bytes",
		"nominal request size: f = ", "case4 (hydro engine) wrote", "proxy MAPE"} {
		if !strings.Contains(out, want) {
			t.Errorf("Listing1 lacks %q:\n%s", want, out)
		}
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

var (
	listing1Command = regexp.MustCompile(`(?m)^Listing 1: jsrun -n \d+ macsio (.*)$`)
	listing1MAPE    = regexp.MustCompile(`proxy MAPE (\d+\.\d+)%`)
)

// TestListing1CommandWritesWhatTheRunWrote is Listing 1's oracle: for
// each case4 pivot variant at two scales, the command the rendering
// prints, parsed and run through MACSio on a model-only filesystem,
// writes a total that differs from the application's by no more than
// the proxy MAPE printed beside it, and that MAPE is itself within the
// 25% bench_test.go holds Fig. 10's kernel to.
func TestListing1CommandWritesWhatTheRunWrote(t *testing.T) {
	executor := campaign.NewExecutor(0, false)
	for _, div := range []int{8, 64} {
		for _, v := range []struct {
			cfl float64
			ml  int
		}{{0.3, 2}, {0.3, 4}, {0.6, 2}, {0.6, 4}} {
			c := campaign.Case4Variant(v.cfl, v.ml).Scaled(div)
			t.Run(c.Name, func(t *testing.T) {
				out, err := executor.RunCase(c, 0)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := core.ReplayRun(c.Inputs(), out.Result.Records)
				if err != nil {
					t.Fatal(err)
				}
				listing := Listing1(out.Result, rp)
				cmd, mape := listing1Command.FindStringSubmatch(listing), listing1MAPE.FindStringSubmatch(listing)
				if cmd == nil || mape == nil {
					t.Fatalf("no command or proxy MAPE in:\n%s", listing)
				}
				cfg, err := macsio.ParseArgs(strings.Fields(cmd[1]))
				if err != nil {
					t.Fatal(err)
				}
				recs, err := macsio.Run(iosim.New(iosim.DefaultConfig(), ""), cfg)
				if err != nil {
					t.Fatal(err)
				}
				bound, _ := strconv.ParseFloat(mape[1], 64)
				if bound > 25 {
					t.Errorf("printed proxy MAPE %.2f%% is beyond the 25%% the paper calls close enough:\n%s", bound, listing)
				}
				wrote, app := macsio.TotalBytes(recs), out.Result.TotalBytes()
				if off := 100 * math.Abs(float64(wrote-app)) / float64(app); off > bound {
					t.Errorf("the command writes %d bytes, %.2f%% off the application's %d, beyond the printed proxy MAPE %.2f%%:\n%s",
						wrote, off, app, bound, listing)
				}
			})
		}
	}
}
