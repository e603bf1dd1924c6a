package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/serve"
)

// serveRunner is serve-mixed: the real handler behind a loopback
// httptest server, one client goroutine on one keep-alive connection,
// Zipf-drawn batches against a cache half the working set. An op is one
// POST /run, from the request to the last NDJSON byte.
type serveRunner struct {
	sz      sizes
	cases   []campaign.Case // the population batches draw from
	warmup  [][]int         // batches sent during set-up, so the LRU starts full
	batches [][]int         // the pass's batches, as population indices
	bodies  [][]byte        // their request bodies

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	// pristine: the server has seen the warm-up and nothing else.
	pristine bool

	cur  int          // index of the last op's batch
	resp bytes.Buffer // the last op's response body

	// ref runs cases directly, off the clock: the cold copy a served
	// output must hash like, and the hit path http_overhead_ms subtracts.
	ref     *campaign.Executor
	refCold map[string]string

	stats0 serve.Statz // server counters when the traced pass began
	traced bool
	// rePosted counts cases the traced pass sent a second time for
	// http_overhead_ms; they are hits by construction and are left out
	// of campaign.hit_ratio.
	rePosted int
}

// serveInputs is the generated input set: the population and every
// batch as indices into it.
type serveInputs struct {
	Population []campaign.Case `json:"population"`
	Warmup     [][]int         `json:"warmup"`
	Batches    [][]int         `json:"batches"`
}

func newServeMixed(seed int64, sz sizes) (runner, error) {
	// The population is the head of the sweep case list, so a case
	// served here is the same case sweep-cold and sweep-warm run.
	cases := sweepCasesFor(seed, sz.sweepCases)[:sz.population]
	all := serveBatches(seed, sz.population, sz.serveWarmup+sz.batches, sz.batchSize)
	r := &serveRunner{
		sz: sz, cases: cases,
		warmup: all[:sz.serveWarmup], batches: all[sz.serveWarmup:],
		ref: campaign.NewExecutor(2*sz.population, false), refCold: map[string]string{},
	}
	for _, b := range r.batches {
		body, err := r.encode(b)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
	}
	return r, nil
}

func (r *serveRunner) encode(batch []int) ([]byte, error) {
	cases := make([]campaign.Case, len(batch))
	for k, idx := range batch {
		cases[k] = r.cases[idx]
	}
	return json.Marshal(cases)
}

func (r *serveRunner) inputs() any {
	return serveInputs{Population: r.cases, Warmup: r.warmup, Batches: r.batches}
}
func (r *serveRunner) ops() int { return len(r.batches) }

func (r *serveRunner) close() {
	if r.ts != nil {
		r.ts.Close()
		r.ts = nil
	}
}

// setup starts the server and sends the warm-up batches.
func (r *serveRunner) setup() error {
	r.close()
	r.srv = serve.New(serve.Options{Parallel: runtime.NumCPU(), CacheSize: r.sz.serveCache})
	r.ts = httptest.NewServer(r.srv.Handler())
	r.client = r.ts.Client()
	for _, b := range r.warmup {
		body, err := r.encode(b)
		if err != nil {
			return err
		}
		if err := r.post(body); err != nil {
			return err
		}
	}
	r.pristine = true
	return nil
}

// beginPass gives every pass the same starting cache: unless the
// server is fresh from set-up, it is restarted and warmed again.
func (r *serveRunner) beginPass() error {
	if r.pristine {
		return nil
	}
	return r.setup()
}

// post sends one batch and reads the whole NDJSON response.
func (r *serveRunner) post(body []byte) error {
	resp, err := r.client.Post(r.ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r.resp.Reset()
	if _, err := io.Copy(&r.resp, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /run: %s: %s", resp.Status, bytes.TrimSpace(r.resp.Bytes()))
	}
	return nil
}

func (r *serveRunner) op(i int) error {
	r.pristine = false
	r.cur = i
	return r.post(r.bodies[i])
}

func (r *serveRunner) verify(_, _ int) bool { return true }

// check counts the batch's bad lines. Every response gets the cheap
// checks (one line per case, each carrying an output and no error);
// every eighth is strictly decoded, hashed, and compared with a cold
// run of the same case.
func (r *serveRunner) check(v *verifier) int {
	batch := r.batches[r.cur]
	lines := r.lines()
	if len(lines) != len(batch) {
		return 1
	}
	bad := 0
	for _, line := range lines {
		if bytes.Contains(line[:min(len(line), 256)], []byte(`"error":`)) || !bytes.Contains(line, []byte(`"output":{`)) {
			bad++
		}
	}
	if r.cur%8 != 0 || bad > 0 {
		return bad
	}
	decoded, err := decodeLines(lines)
	if err != nil {
		return 1
	}
	seen := make([]bool, len(batch))
	for _, l := range decoded {
		if l.Index < 0 || l.Index >= len(batch) || seen[l.Index] || l.Output == nil {
			bad++
			continue
		}
		seen[l.Index] = true
		c := r.cases[batch[l.Index]]
		digest, err := caseDigest(*l.Output)
		if err != nil || l.Name != c.Name || !v.check(c.Name, l.Output.Fingerprint, digest) {
			bad++
			continue
		}
		if cold, err := r.coldDigest(c); err != nil || cold != digest {
			bad++ // the served copy must hash like a cold run
		}
	}
	return bad
}

// lines splits the last response into its NDJSON lines.
func (r *serveRunner) lines() [][]byte {
	return bytes.Split(bytes.TrimRight(r.resp.Bytes(), "\n"), []byte("\n"))
}

// decodeLines strictly decodes NDJSON response lines.
func decodeLines(lines [][]byte) ([]serve.CaseLine, error) {
	out := make([]serve.CaseLine, len(lines))
	for i, line := range lines {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out[i]); err != nil {
			return nil, fmt.Errorf("NDJSON line %d: %w", i, err)
		}
	}
	return out, nil
}

// coldDigest hashes a direct, cold run of c (once per case).
func (r *serveRunner) coldDigest(c campaign.Case) (string, error) {
	if d, ok := r.refCold[c.Name]; ok {
		return d, nil
	}
	out, err := r.ref.RunCase(c, 0)
	if err != nil {
		return "", err
	}
	d, err := caseDigest(out)
	if err == nil {
		r.refCold[c.Name] = d
	}
	return d, err
}

func (r *serveRunner) trace(i int, tc *traceCtx) error {
	acc := tc.acc
	if !r.traced {
		r.traced, r.stats0 = true, r.srv.Stats()
	}
	r.pristine = false
	r.cur = i
	body := r.bodies[i]

	// The real op, with the first NDJSON line timed on the way.
	var firstMS float64
	root, _, err := tc.realOp(func() error {
		t0 := time.Now()
		resp, err := r.client.Post(r.ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		first, err := br.ReadBytes('\n')
		firstMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		r.resp.Reset()
		r.resp.Write(first)
		if err == nil {
			_, err = io.Copy(&r.resp, br)
		}
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("POST /run: %s", resp.Status)
		}
		return err
	})
	if err != nil {
		tc.failed++
		return nil
	}
	acc.sample("serve.first_line_p50_ms", firstMS)
	if r.check(tc.ver) > 0 {
		tc.failed++
	}

	// serve and campaign layers on the request path: the strict batch
	// decode, then CheckBatch (validate + fingerprint per case).
	var cases []campaign.Case
	id := tc.tr.begin("serve.decode", tc.op, root)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&cases)
	acc.sample("serve.decode_us_per_batch", float64(tc.tr.end(id))/1e3)
	if err != nil {
		return err
	}
	id = tc.tr.begin("campaign.checkbatch", tc.op, root)
	err = campaign.CheckBatch(cases, false)
	tc.tr.end(id)
	if err != nil {
		return err
	}
	c0 := cases[0]
	acc.sample("campaign.validate_us", meanUS(16, func() { _ = c0.Validate() }))
	acc.sample("campaign.fingerprint_us", meanUS(16, func() { _, _ = campaign.Fingerprint(c0, false) }))

	// The response path: one json.Marshal per CaseLine.
	lines := r.lines()
	decoded, err := decodeLines(lines)
	if err != nil {
		tc.failed++
		return nil
	}
	for k, l := range decoded {
		id := tc.tr.begin("serve.encode", tc.op, root)
		_, err := json.Marshal(l)
		acc.sample("serve.encode_us_per_case", float64(tc.tr.end(id))/1e3)
		if err != nil {
			return err
		}
		acc.sample("serve.line_bytes", float64(len(lines[k])+1))
	}

	// HTTP overhead: the same batch again is all hits, so its round
	// trip minus the hits' own cost is what HTTP, JSON and the pool add.
	// A few ops are enough; each needs its cases on the direct executor.
	if i < 16 {
		var hitUS float64
		for _, c := range cases {
			if _, err := r.coldDigest(c); err != nil {
				return err
			}
			t0 := time.Now()
			out, err := r.ref.RunCase(c, 0)
			us := usSince(t0)
			if err != nil || !out.Cached {
				tc.failed++
				continue
			}
			acc.sample("campaign.hit_us", us)
			hitUS += us
		}
		t0 := time.Now()
		if err := r.post(body); err != nil {
			tc.failed++
			return nil
		}
		acc.sample("serve.http_overhead_ms", float64(time.Since(t0).Nanoseconds())/1e6-hitUS/1e3)
		r.rePosted += len(cases)
	}
	return nil
}

// statz fetches and strictly decodes GET /statz.
func (r *serveRunner) statz() (serve.Statz, error) {
	var st serve.Statz
	resp, err := r.client.Get(r.ts.URL + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	return st, dec.Decode(&st)
}

func (r *serveRunner) finish(res *passResults) {
	if !r.traced {
		return
	}
	st, err := r.statz()
	if err != nil {
		res.failed++
		return
	}
	hits := float64(st.Hits-r.stats0.Hits) - float64(r.rePosted)
	misses := float64(st.Misses - r.stats0.Misses)
	if hits+misses > 0 {
		res.layers.set("campaign.hit_ratio", hits/(hits+misses))
	}
	res.layers.set("campaign.evictions", misses-float64(st.Size-r.stats0.Size))
	res.layers.set("serve.statz_cases_per_s", st.CasesPerSec)
}
