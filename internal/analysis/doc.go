// Package analysis is a self-contained static-analysis framework (a
// stdlib-only mirror of golang.org/x/tools/go/analysis) plus the
// contract that the amrio-vet analyzer suite enforces over this
// repository. The suite exists because the invariants below were each
// violated at least once by plausible-looking code that compiled, passed
// unit tests, and broke a property the simulator's results depend on.
//
// # The contract
//
// 1. Deterministic aggregation (maprangefloat). Go randomizes map
// iteration order, and float addition is not associative: summing the
// same values in two orders can differ in the last ulp. Any loop that
// ranges over a map and accumulates floats — or appends map-derived
// elements to an order-bearing slice — therefore produces run-to-run
// nondeterminism, which breaks the repo's byte-identical pinning tests
// (plotfile encoders, zero-Topology property pins). The per-burst statistics
// aggregation shipped exactly this bug. Such loops must iterate over
// sorted keys; the analyzer's suggested fix emits the canonical
// sorted-keys header.
//
// 2. No ambient nondeterminism (nondeterm). Simulation and pricing code
// must be a pure function of its inputs and seed. time.Now and the
// global math/rand source smuggle in ambient state that cannot be
// replayed; only explicitly seeded sources (rand.New(rand.NewSource(s)))
// are allowed. Test files and the campaign package (which times real
// subprocess runs) are exempt.
//
// 3. BoxArray construction goes through NewBoxArray (boxarraylit).
// BoxArray carries a lazily built spatial index behind a holder pointer;
// a composite literal outside internal/amr leaves the holder nil and
// either panics or silently skips index-accelerated paths. Only the
// defining package may use the literal form.
//
// 4. Strict config decoding (jsonstrict). Fault plans, mitigation
// policies, aggregation specs, and campaign cases configure what a sweep
// measures. A lenient json.Unmarshal drops unknown fields, so a typo
// ("targets" for "target") configures nothing and the sweep silently
// runs without its axis. Every decode whose target contains a config
// type must go through a DisallowUnknownFields decoder, or the type must
// define its own strict UnmarshalJSON.
//
// # Running the suite
//
// The root test TestAnalyzerSuiteClean (analyzers_test.go) runs the
// suite over the whole module, test files included, so `go test ./...`
// fails on any finding and prints its position and suggested fix:
//
//	go test -run TestAnalyzerSuiteClean .
//
// Each analyzer has golden-file coverage under its testdata/src
// directory with both flagged and allowed cases, loaded through the
// offline go/types loader in load.go (go list -export + the gc
// importer), so the whole suite works without network access or a
// populated module cache.
package analysis
