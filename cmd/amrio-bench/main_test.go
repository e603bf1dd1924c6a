package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestSeedDeterminism: the same seed generates byte-identical inputs, a
// different seed different ones — except paper-pivot, whose cases are
// the paper's and ignore the seed.
func TestSeedDeterminism(t *testing.T) {
	gen := func(def *workloadDef, seed int64) []byte {
		t.Helper()
		r, err := def.new(seed, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		_, data, err := inputsDigest(r.inputs())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := range workloads {
		def := &workloads[i]
		a, again, b := gen(def, 1), gen(def, 1), gen(def, 2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 generated different inputs twice", def.name)
		}
		if seedFree := def.name == "paper-pivot"; bytes.Equal(a, b) != seedFree {
			t.Errorf("%s: seeds 1 and 2 generate equal inputs = %v, want %v", def.name, !seedFree, seedFree)
		}
	}
}

// TestSweepDeckIsBalanced: every seed deals the same mix of axis values,
// so seeds differ in order and pairing, not in how much work they hold.
func TestSweepDeckIsBalanced(t *testing.T) {
	count := func(seed int64) map[string]int {
		m := map[string]int{}
		for _, c := range sweepCasesFor(seed, 1000) {
			b, _ := json.Marshal([]any{c.CFL, c.MaxLevel, c.Dist})
			m[string(b)]++
		}
		return m
	}
	a, b := count(3), count(4)
	if len(a) != len(sweepCFLs)*len(sweepLevels)*len(sweepDists) {
		t.Fatalf("%d combinations dealt", len(a))
	}
	for k, n := range a {
		if b[k] != n {
			t.Errorf("combination %s: %d cases under seed 3, %d under seed 4", k, n, b[k])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{2_000_000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 100}, {4, 100}, {1, 100},
	} {
		got := tailPercentile(tc.n, 99)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if got < 100 {
			if beyond := tc.n - 1 - rankIndex(tc.n, got); beyond < 10 {
				t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(asc, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if got := percentile(asc[:4], 100); got != 4 {
		t.Errorf("p100 of 1..4 = %g, want 4", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3, ok := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, %v; want 2.75, 8.25", q1, q3, ok)
	}
	q1, q3, ok = quartiles([]float64{3, 1, 2})
	if !ok || q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g, %g, %v; want 1, 3", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestSelfTimes(t *testing.T) {
	// op(0..100) → write(10..60) → {spmd 20, price 25 → faults 5}, fold(60..70)
	spans := []span{
		{ID: 0, Name: "op", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "plotfile.write", Parent: 0, Start: 10, End: 60},
		{ID: 2, Name: "mpisim.spmd", Parent: 1, Start: 60, End: 80},
		{ID: 3, Name: "iosim.price", Parent: 1, Start: 80, End: 105},
		{ID: 4, Name: "faults.price", Parent: 3, Start: 80, End: 85, Derived: true},
		{ID: 5, Name: "iosim.fold", Parent: 0, Start: 105, End: 115},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 40, 1: 5, 2: 20, 3: 20, 4: 5, 5: 10}
	for id, ns := range want {
		if self[id] != ns {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, self[id], ns)
		}
	}
	b := breakdown(spans)[0]
	if b.opNS != 100 {
		t.Errorf("op time = %d, want 100", b.opNS)
	}
	var attributed int64
	for _, ns := range b.byName {
		attributed += ns
	}
	if attributed != 60 { // write's 50 + fold's 10, however the children split it
		t.Errorf("attributed = %d, want 60", attributed)
	}
	// Children that outlast their parent floor its self time at zero.
	over := selfTimes([]span{
		{ID: 0, Name: "op", Parent: -1, Start: 0, End: 10},
		{ID: 1, Name: "x", Parent: 0, Start: 0, End: 30},
	})
	if over[0] != 0 || over[1] != 30 {
		t.Errorf("over-long child: self = %v", over)
	}
}

func TestVerifier(t *testing.T) {
	shared := map[string]string{}
	v := newVerifier(map[string]string{"a": "d1"}, shared)
	if !v.check("a", "fp-a", "d1") {
		t.Error("golden-matching digest rejected")
	}
	if v.check("a", "fp-a", "d2") {
		t.Error("digest that differs from golden and earlier copy accepted")
	}
	if !v.check("b", "fp-b", "d3") {
		t.Error("key without a golden rejected")
	}
	if v.check("b", "fp-b", "d4") {
		t.Error("second copy with another digest accepted")
	}
	w := newVerifier(nil, shared)
	if w.check("served-a", "fp-a", "other") {
		t.Error("another workload's copy of the same fingerprint accepted with another digest")
	}
	if v.mismatched != 2 || w.mismatched != 1 {
		t.Errorf("mismatch counts %d, %d", v.mismatched, w.mismatched)
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json declares exactly the
// workloads and metrics the binary's tables do, with legal names.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if want := []string{"cmd/amrio-bench", "bench"}; strings.Join(b.Paths, ",") != strings.Join(want, ",") {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default budget is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, binary has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		def := workloads[i]
		if w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: %q / %q, binary has %q / %q", i, w.Name, w.Why, def.name, def.why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: illegal name or why", w.Name)
		}
	}

	var everywhere []metricDef
	for _, d := range endToEnd {
		if d.everywhere {
			everywhere = append(everywhere, d)
		}
	}
	if len(b.EndToEnd) != len(everywhere) {
		t.Fatalf("%d end-to-end metrics declared, binary carries %d on every workload", len(b.EndToEnd), len(everywhere))
	}
	for i, m := range b.EndToEnd {
		d := everywhere[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, binary has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: illegal name, unit or bound", m.Name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, binary has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, binary has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %q: illegal name or unit", m.Name)
		}
	}
}

func keys(m map[string]driverMetric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmokeSuite runs all six workloads end to end at smoke size — the
// same code paths as the full suite — and checks that nothing fails and
// that the driver lines carry exactly BENCHMARK.json's metrics.
func TestSmokeSuite(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wantE2E, wantLayers []string
	for _, m := range b.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range b.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)

	opt := runOptions{
		timed: true, traced: true, memory: true, sz: smokeSizes,
		goldenDir: t.TempDir(), traceDir: t.TempDir(), shared: map[string]string{}, setupReps: 1,
	}
	for i := range workloads {
		def := &workloads[i]
		rec, err := runWorkload(def, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", def.name, rec.Failed, rec.Attempted)
		}
		if rec.TimedPasses < 1 || rec.TracedOps < 1 || rec.MemoryOps < 1 {
			t.Errorf("%s: passes ran %d/%d/%d", def.name, rec.TimedPasses, rec.TracedOps, rec.MemoryOps)
		}
		if _, err := os.Stat(rec.Trace); err != nil {
			t.Errorf("%s: trace file: %v", def.name, err)
		}
		for _, endToEndLine := range []bool{true, false} {
			line, err := driverLine(rec, endToEndLine)
			if err != nil {
				t.Fatal(err)
			}
			var res driverResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			want := wantLayers
			if endToEndLine {
				want = wantE2E
			}
			if got := keys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s: driver line carries %v, BENCHMARK.json declares %v", def.name, got, want)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s: driver line %+v", def.name, res)
			}
		}
		for _, m := range rec.EndToEnd {
			if d := metricByName(endToEnd, m.Name); d == nil {
				t.Errorf("%s: undeclared end-to-end metric %q", def.name, m.Name)
			} else if d.everywhere && def.name != "paper-pivot" && !(m.Value > 0) {
				// paper-pivot's smoke case retains too little to clear the baseline.
				t.Errorf("%s: %s = %g, must be positive", def.name, m.Name, m.Value)
			}
		}
		// The bypass: a warm hit touches no simulation layer.
		if def.name == "sweep-warm" {
			for _, m := range rec.PerLayer {
				layer := m.Name[:strings.Index(m.Name, ".")]
				if layer != "campaign" && layer != "bench" && m.Value != 0 {
					t.Errorf("sweep-warm: %s = %g, want 0 (bypassed)", m.Name, m.Value)
				}
			}
		}
		if def.name == "paper-pivot" && rec.metric("proxy_err_pct") == nil {
			t.Error("paper-pivot: no proxy_err_pct")
		}
	}
}

func TestCompare(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	mk := func(ops, p50, heap, failed float64, q1, q3 *float64, bytes float64) runRecord {
		return runRecord{Seed: 1, Workloads: []workloadRecord{{
			Name: "w",
			EndToEnd: []metricRecord{
				{Name: "ops_per_s", Better: higher, Value: ops, Bound: 0.08, Q1: q1, Q3: q3},
				{Name: "lat_p50_ms", Better: lower, Value: p50, Bound: 0.08},
				{Name: "peak_heap_mb", Better: lower, Value: heap, Bound: 0.10},
				{Name: "failed_ops", Better: lower, Value: failed, AbsBound: 1e-12, Exact: true},
			},
			PerLayer: []metricRecord{{Name: "iosim.bytes", Value: bytes, Exact: true}},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, r runRecord) string {
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(100, 10, 50, 0, nil, nil, 1e9))
	for _, tc := range []struct {
		name string
		b    runRecord
		bad  bool
		want []string
	}{
		{"same", mk(97, 10.5, 52, 0, nil, nil, 1e9), false, []string{"ops_per_s", verdictOK}},
		{"slower", mk(90, 10, 50, 0, nil, nil, 1e9), true, []string{verdictRegressed}},
		{"faster", mk(130, 8, 40, 0, nil, nil, 1e9), false, nil},
		{"noisy", mk(97, 10, 50, 0, f(85), f(105), 1e9), false, []string{verdictUnresolved}},
		{"failing", mk(100, 10, 50, 0.01, nil, nil, 1e9), true, []string{"failed_ops", verdictRegressed}},
		{"other-bytes", mk(100, 10, 50, 0, nil, nil, 1e9+1), true, []string{"iosim.bytes", verdictDiffers}},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, base, write(tc.name+".json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.bad {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, bad, tc.bad, out.String())
		}
		for _, s := range tc.want {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, s, out.String())
			}
		}
	}
}

// TestGoldens: the committed goldens exist for every workload, and the
// cold, warm and served copies of a case share one digest.
func TestGoldens(t *testing.T) {
	dir := filepath.Join("..", "..", "bench", "golden")
	load := func(name string) goldenFile {
		t.Helper()
		data, err := os.ReadFile(goldenPath(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var g goldenFile
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatal(err)
		}
		if g.Workload != name || g.Seed != 1 || len(g.Outputs) == 0 {
			t.Fatalf("golden %s: workload %q seed %d with %d outputs", name, g.Workload, g.Seed, len(g.Outputs))
		}
		return g
	}
	for _, w := range workloads {
		load(w.name)
	}
	cold, warm, served := load("sweep-cold"), load("sweep-warm"), load("serve-mixed")
	if len(cold.Outputs) != fullSizes.sweepCases || len(warm.Outputs) != fullSizes.sweepCases {
		t.Errorf("sweep goldens hold %d and %d cases, want %d", len(cold.Outputs), len(warm.Outputs), fullSizes.sweepCases)
	}
	for key, d := range cold.Outputs {
		if warm.Outputs[key] != d {
			t.Errorf("%s: cold %s, warm %s", key, d[:12], warm.Outputs[key])
		}
	}
	for key, d := range served.Outputs {
		if cold.Outputs[key] != d {
			t.Errorf("%s: served %s, cold %s", key, d[:12], cold.Outputs[key])
		}
	}
	// The generated inputs the goldens were written for are still the
	// ones seed 1 generates.
	for i := range workloads {
		def := &workloads[i]
		r, err := def.new(1, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		sha, _, err := inputsDigest(r.inputs())
		r.close()
		if err != nil {
			t.Fatal(err)
		}
		if g := load(def.name); g.InputsSHA256 != sha {
			t.Errorf("%s: seed 1 now generates inputs %s, golden was written for %s (rerun -update-golden)", def.name, sha[:12], g.InputsSHA256[:12])
		}
	}
}
