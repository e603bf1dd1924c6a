package core

import (
	"math"
	"testing"

	"amrproxyio/internal/inputs"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/plotfile"
)

// syntheticRecords builds a ledger with known per-(step,level,rank) bytes.
func syntheticRecords() []plotfile.OutputRecord {
	var recs []plotfile.OutputRecord
	// 3 plot events (steps 0, 20, 40), 2 levels, 2 ranks.
	for k, step := range []int{0, 20, 40} {
		growth := math.Pow(1.01, float64(k))
		for level := 0; level < 2; level++ {
			for rank := 0; rank < 2; rank++ {
				b := int64(float64((level+1)*100000) * growth)
				recs = append(recs, plotfile.OutputRecord{Step: step, Level: level, Rank: rank, Bytes: b})
			}
		}
	}
	return recs
}

func TestPerStepBytes(t *testing.T) {
	steps, bytes := PerStepBytes(syntheticRecords())
	if len(steps) != 3 || steps[0] != 0 || steps[2] != 40 {
		t.Fatalf("steps = %v", steps)
	}
	if bytes[0] != 2*100000+2*200000 {
		t.Errorf("step0 bytes = %d", bytes[0])
	}
	if bytes[1] <= bytes[0] {
		t.Error("growth not reflected")
	}
}

func TestPerLevelPerStep(t *testing.T) {
	steps, byLevel := PerLevelPerStep(syntheticRecords())
	if len(steps) != 3 || len(byLevel) != 2 {
		t.Fatalf("steps=%v levels=%d", steps, len(byLevel))
	}
	if byLevel[0][0] != 200000 || byLevel[1][0] != 400000 {
		t.Errorf("level series = %v", byLevel)
	}
}

func TestPerTaskPerStep(t *testing.T) {
	steps, byTask := PerTaskPerStep(syntheticRecords(), 1, 2)
	if len(steps) != 3 || len(byTask) != 2 {
		t.Fatalf("steps=%v tasks=%d", steps, len(byTask))
	}
	if byTask[0][0] != 200000 || byTask[1][0] != 200000 {
		t.Errorf("task series = %v", byTask)
	}
	// A rank with no data at the level gets zeros.
	_, byTask = PerTaskPerStep(syntheticRecords(), 1, 3)
	if byTask[2][0] != 0 {
		t.Errorf("absent rank bytes = %d", byTask[2][0])
	}
}

func TestCumulativeXYEq1(t *testing.T) {
	xs, ys := CumulativeXY(syntheticRecords(), 512*512)
	if len(xs) != 3 {
		t.Fatalf("len = %d", len(xs))
	}
	if xs[0] != 512*512 || xs[2] != 3*512*512 {
		t.Errorf("xs = %v", xs)
	}
	if ys[0] >= ys[1] || ys[1] >= ys[2] {
		t.Error("cumulative ys must increase")
	}
	_, perStep := PerStepBytes(syntheticRecords())
	if ys[0] != float64(perStep[0]) {
		t.Errorf("y0 = %g, want %d", ys[0], perStep[0])
	}
}

func TestPartSizeEq3(t *testing.T) {
	// The paper's worked example: 23.65 * 512^2 * 8 / 32 ≈ 1550000.
	got := PartSizeEq3(23.65, 512, 512, 32)
	if got < 1540000 || got > 1560000 {
		t.Errorf("part_size = %d, want ~1550000", got)
	}
}

func TestFitFIsInverseOfEq3(t *testing.T) {
	// If a run wrote exactly f*8*Nx*Ny bytes at step 0, FitF recovers f.
	f := 23.65
	step0 := int64(f * 8 * 512 * 512)
	got := FitF(step0, 512, 512, MatchNominal)
	if math.Abs(got-f)/f > 1e-6 { // int64 truncation of step0 costs <1 byte
		t.Errorf("f = %g, want %g", got, f)
	}
	// MatchFileBytes divides out the JSON inflation (~3).
	fb := FitF(step0, 512, 512, MatchFileBytes)
	if fb >= got || fb < got/4 {
		t.Errorf("file-bytes f = %g vs nominal %g", fb, got)
	}
}

func TestGrowthGuessMonotone(t *testing.T) {
	if GrowthGuess(0.3, 2) != 1.0 {
		t.Errorf("low corner = %g", GrowthGuess(0.3, 2))
	}
	if math.Abs(GrowthGuess(0.6, 4)-1.02) > 1e-12 {
		t.Errorf("high corner = %g", GrowthGuess(0.6, 4))
	}
	if !(GrowthGuess(0.6, 2) > GrowthGuess(0.3, 2)) {
		t.Error("cfl not monotone")
	}
	if !(GrowthGuess(0.3, 4) > GrowthGuess(0.3, 2)) {
		t.Error("levels not monotone")
	}
	// Out-of-range inputs clamp.
	if GrowthGuess(0.1, 1) != 1.0 || GrowthGuess(0.9, 6) != 1.02 {
		t.Error("clamping failed")
	}
}

func TestKernelModelPredict(t *testing.T) {
	m := KernelModel{Base: 100, Growth: 1.1}
	if m.Predict(0) != 100 {
		t.Errorf("P(0) = %g", m.Predict(0))
	}
	if math.Abs(m.Predict(2)-121) > 1e-9 {
		t.Errorf("P(2) = %g", m.Predict(2))
	}
	s := m.PredictSeries(3)
	if len(s) != 3 || s[2] != m.Predict(2) {
		t.Errorf("series = %v", s)
	}
}

func TestCalibrateGrowthRecoversKnownFactor(t *testing.T) {
	// Paper's Fig. 9 headline: growth = 1.013075.
	const trueGrowth = 1.013075
	base := 1.55e6 * 32.0
	measured := make([]int64, 20)
	for k := range measured {
		measured[k] = int64(base * math.Pow(trueGrowth, float64(k)))
	}
	m, trace := CalibrateGrowth(measured, base, 1.0, 1.05)
	if math.Abs(m.Growth-trueGrowth) > 1e-5 {
		t.Errorf("growth = %v, want %v", m.Growth, trueGrowth)
	}
	if len(trace) < 5 {
		t.Errorf("trace too short: %d", len(trace))
	}
	// SSE at the fitted growth must be the minimum of the trace.
	minSSE := math.Inf(1)
	for _, it := range trace {
		if it.SSE < minSSE {
			minSSE = it.SSE
		}
	}
	final := KernelModel{Base: base, Growth: m.Growth}
	target := make([]float64, len(measured))
	for i, b := range measured {
		target[i] = float64(b)
	}
	// Final model should be within a hair of the best traced SSE.
	finalSSE := 0.0
	for i, p := range final.PredictSeries(len(target)) {
		finalSSE += (p - target[i]) * (p - target[i])
	}
	if finalSSE > minSSE*1.001+1 {
		t.Errorf("final SSE %g worse than traced best %g", finalSSE, minSSE)
	}
}

func TestCalibrateGrowthOLS(t *testing.T) {
	const trueGrowth = 1.0131
	measured := make([]int64, 15)
	for k := range measured {
		measured[k] = int64(2e6 * math.Pow(trueGrowth, float64(k)))
	}
	m, err := CalibrateGrowthOLS(measured)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Growth-trueGrowth) > 1e-4 {
		t.Errorf("OLS growth = %g", m.Growth)
	}
	if math.Abs(m.Base-2e6)/2e6 > 0.01 {
		t.Errorf("OLS base = %g", m.Base)
	}
	if _, err := CalibrateGrowthOLS([]int64{5}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := CalibrateGrowthOLS([]int64{5, 0}); err == nil {
		t.Error("zero bytes accepted")
	}
}

func TestTranslateListing1Shape(t *testing.T) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{512, 512}
	cfg.MaxStep = 400
	cfg.PlotInt = 20
	cfg.NProcs = 32

	// Synthesize a measured run with known growth.
	var recs []plotfile.OutputRecord
	base := 1.5e8
	for k := 0; k <= 20; k++ {
		b := int64(base * math.Pow(1.012, float64(k)) / 32)
		for rank := 0; rank < 32; rank++ {
			recs = append(recs, plotfile.OutputRecord{Step: k * 20, Level: 0, Rank: rank, Bytes: b})
		}
	}
	tr, err := Translate(cfg, recs, DefaultTranslateOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := tr.MACSio
	if m.FileMode != macsio.ModeMIF || m.MIFFiles != 32 || m.NProcs != 32 {
		t.Errorf("MIF mapping wrong: %+v", m)
	}
	if m.NumDumps != 21 { // steps 0..400 every 20
		t.Errorf("num_dumps = %d, want 21", m.NumDumps)
	}
	if m.AvgNumParts != 1 || m.VarsPerPart != 1 {
		t.Errorf("parts/vars = %g/%d", m.AvgNumParts, m.VarsPerPart)
	}
	if math.Abs(m.DatasetGrowth-1.012) > 1e-3 {
		t.Errorf("growth = %g, want ~1.012", m.DatasetGrowth)
	}
	// Eq. 3 consistency: part_size == f*8*Nx*Ny/nprocs.
	want := PartSizeEq3(tr.F, 512, 512, 32)
	if m.PartSize != want {
		t.Errorf("part_size = %d, want %d", m.PartSize, want)
	}
	if tr.MAPE > 1 {
		t.Errorf("MAPE = %g%%, expected excellent fit on synthetic data", tr.MAPE)
	}
	if tr.Pearson < 0.999 {
		t.Errorf("Pearson = %g", tr.Pearson)
	}
}

func TestTranslateErrors(t *testing.T) {
	cfg := inputs.DefaultCastroInputs()
	cfg.PlotInt = 0
	if _, err := Translate(cfg, nil, DefaultTranslateOptions()); err == nil {
		t.Error("plot_int=0 accepted")
	}
	cfg.PlotInt = 20
	if _, err := Translate(cfg, nil, DefaultTranslateOptions()); err == nil {
		t.Error("empty ledger accepted")
	}
}
