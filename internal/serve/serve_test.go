package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"amrproxyio/internal/campaign"
)

func fastCase(name string, plotInt int) campaign.Case {
	return campaign.Case{
		Name: name, NCell: 32, MaxLevel: 0, MaxStep: 2, PlotInt: plotInt,
		CFL: 0.5, NProcs: 2,
	}
}

func postBatch(t *testing.T, url string, cases []campaign.Case) *http.Response {
	t.Helper()
	body, err := json.Marshal(cases)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readLines(t *testing.T, resp *http.Response) []CaseLine {
	t.Helper()
	defer resp.Body.Close()
	var lines []CaseLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line CaseLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestServeBatchWithDuplicate is the service-level cache demo the CI
// smoke job replays: a 3-case batch with one exact duplicate streams 3
// NDJSON lines, at least one marked cached, and /statz shows the hit.
func TestServeBatchWithDuplicate(t *testing.T) {
	s := New(Options{Parallel: 1}) // serial pool: the duplicate hits the LRU
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := fastCase("a", 1)
	dup := a
	b := fastCase("b", 2)
	resp := postBatch(t, ts.URL, []campaign.Case{a, dup, b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	lines := readLines(t, resp)
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", len(lines))
	}
	cached := 0
	seen := map[int]bool{}
	for _, l := range lines {
		if l.Error != "" {
			t.Errorf("case %d (%s) errored: %s", l.Index, l.Name, l.Error)
		}
		if l.Output == nil || l.Output.Result.NPlots == 0 {
			t.Errorf("case %d missing output", l.Index)
		}
		if l.Cached {
			cached++
		}
		seen[l.Index] = true
	}
	if cached < 1 {
		t.Error("duplicated case was not served from the cache")
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Errorf("no line for case index %d", i)
		}
	}

	var st Statz
	sresp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits < 1 {
		t.Errorf("statz hits = %d, want >= 1", st.Hits)
	}
	if st.HitRate <= 0 {
		t.Errorf("statz hit_rate = %g, want > 0", st.HitRate)
	}
	if st.CasesCompleted != 3 {
		t.Errorf("statz cases_completed = %d, want 3", st.CasesCompleted)
	}
	if st.InFlightCases != 0 || st.InFlightBatches != 0 {
		t.Errorf("statz shows in-flight work after the batch drained: %+v", st)
	}
}

func TestServeRejectsBadBatches(t *testing.T) {
	s := New(Options{MaxCases: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
	if resp := post(`[{"name":"x","n_cell":32,"max_step":1,"plot_int":1,"cfl":0.5,"nprocs":1,"bogus_field":1}]`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
	if resp := post(`[]`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", resp.StatusCode)
	}
	// A second batch after the first must not be dropped unrun.
	one := `[{"name":"x","n_cell":32,"max_step":1,"plot_int":1,"cfl":0.5,"nprocs":1}]`
	if resp := post(one + " " + one); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing batch: status = %d, want 400", resp.StatusCode)
	}
	if resp := post(`[{"name":"x","n_cell":32,"max_step":1,"plot_int":1,"cfl":0.5,"nprocs":1,"engine":"bogus"}]`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid case: status = %d, want 400", resp.StatusCode)
	}
	// A mesh with no cells is refused by Validate before the stream
	// starts, not reported as an NDJSON error line under 200.
	if resp := post(`[{"name":"x","n_cell":0,"max_step":1,"plot_int":1,"cfl":0.5,"nprocs":1}]`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("n_cell 0: status = %d, want 400", resp.StatusCode)
	}
	// Same name, different configuration: the CheckBatch rejection.
	conflict := `[{"name":"x","n_cell":32,"max_step":1,"plot_int":1,"cfl":0.5,"nprocs":1},
	              {"name":"x","n_cell":32,"max_step":2,"plot_int":1,"cfl":0.5,"nprocs":1}]`
	if resp := post(conflict); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("name conflict: status = %d, want 400", resp.StatusCode)
	}
	// Over the batch size limit (MaxCases: 2).
	over, _ := json.Marshal([]campaign.Case{fastCase("a", 1), fastCase("b", 2), fastCase("c", 1)})
	if resp := post(string(over)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", resp.StatusCode)
	}

	getResp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status = %d, want 405", getResp.StatusCode)
	}
}

// TestServeBodyLimit pins the /run body bound at MaxCases × perCaseBytes:
// a legal batch padded to exactly the limit still streams, and one byte
// more is refused with 413 before anything is decoded into cases.
func TestServeBodyLimit(t *testing.T) {
	s := New(Options{MaxCases: 1, Parallel: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch, err := json.Marshal([]campaign.Case{fastCase("limit", 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Leading whitespace is legal JSON and makes the decoder read every
	// byte before the batch completes.
	padded := func(size int) string {
		return strings.Repeat(" ", size-len(batch)) + string(batch)
	}
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(padded(perCaseBytes + 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("one byte over the limit: status = %d, want 413", resp.StatusCode)
	}
	resp = post(padded(perCaseBytes))
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("batch at the limit: status = %d, want 200", resp.StatusCode)
	}
	if lines := readLines(t, resp); len(lines) != 1 || lines[0].Error != "" || lines[0].Output == nil {
		t.Errorf("batch at the limit streamed %+v", lines)
	}
}

// FuzzDecodeBatch: no input panics the strict batch decoder, and any
// batch it accepts re-encodes and decodes to the same cases. "Same" is
// equal encodings: an empty list ("events":[]) and an absent one decode
// to empty and nil slices, which every consumer treats alike.
func FuzzDecodeBatch(f *testing.F) {
	valid, err := json.Marshal([]campaign.Case{fastCase("a", 1), fastCase("b", 2)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`[{"name":"f","n_cell":64,"nprocs":4,"storage":"bb+gpfs",
		  "faults":{"events":[{"kind":"target-outage","start":0.05,"end":1,"target":0}],"mtbf_seconds":20,"seed":7},
		  "mitigate":{"quarantine":true,"shed_pressure":0.5},
		  "aggregation":{"aggregators":"2/node","layout":"sif","async":true}}]`,
		`[]`, `null`, `{not json`, `[{"name":"x","bogus_field":1}]`,
		`[{"name":"e","faults":{"events":[]}}]`,
		`[{"aggregation":{"aggregators":"all","writers":3}}]`,
		string(valid) + " " + string(valid), string(valid) + "]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cases, err := decodeBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(cases)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		again, err := decodeBatch(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v\n%s", err, enc)
		}
		if encAgain, err := json.Marshal(again); err != nil || !bytes.Equal(enc, encAgain) {
			t.Fatalf("round trip changed the batch (%v):\n%s\n%s", err, enc, encAgain)
		}
	})
}

// TestServeStreamsIncrementally pins the NDJSON contract: with a slow
// and a fast case running in parallel, the fast case's line arrives
// while the batch is still in flight — results stream as they
// complete, they are not buffered until the batch returns.
func TestServeStreamsIncrementally(t *testing.T) {
	s := New(Options{Parallel: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := campaign.Case{
		Name: "slow", NCell: 64, MaxLevel: 1, MaxStep: 80, PlotInt: 20,
		CFL: 0.5, NProcs: 4, Engine: campaign.EngineHydro,
	}
	fast := fastCase("fast", 1)
	resp := postBatch(t, ts.URL, []campaign.Case{slow, fast})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first CaseLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "fast" {
		t.Errorf("first streamed line = %q, want the fast case", first.Name)
	}
	// The batch is still running when its first line arrives.
	if st := s.Stats(); st.InFlightBatches != 1 || st.InFlightCases != 2 {
		t.Errorf("after first line: in-flight batches = %d cases = %d, want 1/2",
			st.InFlightBatches, st.InFlightCases)
	}
	var rest int
	for sc.Scan() {
		rest++
	}
	if rest != 1 {
		t.Errorf("got %d further lines, want 1", rest)
	}
}

func TestServeHealthz(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

// TestServeBatchSemaphore pins the concurrency limit: with one batch
// slot, a second batch waits for the first to finish rather than
// running alongside it.
func TestServeBatchSemaphore(t *testing.T) {
	s := New(Options{MaxBatches: 1, Parallel: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := func(name string) []campaign.Case {
		c := campaign.Case{
			Name: name, NCell: 64, MaxLevel: 1, MaxStep: 40, PlotInt: 20,
			CFL: 0.5, NProcs: 4, Engine: campaign.EngineHydro,
		}
		return []campaign.Case{c}
	}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp := postBatch(t, ts.URL, batch(fmt.Sprintf("sem-%d", i)))
			readLines(t, resp)
			done <- i
		}(i)
	}
	deadline := time.After(2 * time.Minute)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("batches did not complete")
		}
	}
	// Never more than one batch in flight. (Sampled at the end: the
	// gauge must read zero; the 1-slot semaphore is structural.)
	if st := s.Stats(); st.InFlightBatches != 0 {
		t.Errorf("in-flight batches = %d after drain", st.InFlightBatches)
	}
}

// TestServeCaseTimeout: Options.CaseTimeout reaches every case. The CI
// smoke pair — a fast surrogate case and a multi-second hydro case —
// under a 200 ms bound streams the fast case's output and the slow
// case's timeout error, and the stopped case leaves nothing in flight.
func TestServeCaseTimeout(t *testing.T) {
	s := New(Options{Parallel: 2, CaseTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fast := campaign.Case{
		Name: "stream-fast", NCell: 512, MaxLevel: 1, MaxStep: 4, PlotInt: 2,
		CFL: 0.5, NProcs: 8, Nodes: 2, Engine: campaign.EngineSurrogate,
	}
	slow := campaign.Case{
		Name: "stream-slow", NCell: 64, MaxLevel: 2, MaxStep: 600, PlotInt: 100,
		CFL: 0.5, NProcs: 4, Nodes: 1, Engine: campaign.EngineHydro,
	}
	resp := postBatch(t, ts.URL, []campaign.Case{fast, slow})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := readLines(t, resp)
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", len(lines))
	}
	for _, l := range lines {
		switch l.Name {
		case fast.Name:
			if l.Error != "" || l.Output == nil {
				t.Errorf("fast case: error %q, output %v", l.Error, l.Output)
			}
		case slow.Name:
			if !strings.Contains(l.Error, "timed out") {
				t.Errorf("slow case error = %q, want a timeout", l.Error)
			}
		default:
			t.Errorf("unexpected line %+v", l)
		}
	}
	if st := s.Stats(); st.Errors != 1 || st.InFlight != 0 || st.InFlightCases != 0 {
		t.Errorf("stats = %+v, want 1 error and nothing in flight", st)
	}
}
