// Package serve is the campaign service layer (Design 10): an HTTP
// front end over the memoizing case executor, turning the batch CLI
// sweep into a long-lived service for heavy sweep traffic.
//
// Data flow:
//
//	POST /run  —  JSON array of campaign.Case
//	   │ bounded body (over MaxCases × 4 KiB → 413), strict decode
//	   │ (unknown fields → 400), CheckBatch (invalid or
//	   │ name-conflicting batches → 400), batch semaphore (concurrency
//	   │ limit; waits, honoring request cancellation)
//	   ▼
//	campaign.RunAll on the server's Executor (memoizing LRU,
//	            single-flight) + WithCaseTimeout + WithOutputs
//	   │ each case: fingerprint lookup → cache hit, or one simulation
//	   │ streamed through its one iosim.CharacterizeFold (the ledger is
//	   │ never retained; the fold itself is dropped once the output is
//	   │ built, so neither a line nor the cache carries it)
//	   ▼
//	NDJSON response — one line per case, flushed as it completes, in
//	completion order (each line carries the case index and name)
//
//	GET /healthz — liveness
//	GET /statz   — executor counters (hits, misses, hit rate, errors,
//	               in-flight), cases completed, cases/sec, in-flight
//	               cases and batches, uptime
//
// The package wires handlers, limits, and stats; process concerns —
// listening, SIGTERM-driven graceful drain — live in cmd/amrio-campaign
// (the -serve flag), which shuts the http.Server down with a deadline
// so in-flight batches finish streaming before the process exits.
//
// serve is exempt from the nondeterm vet gate: unlike the simulation
// packages it measures real wall-clock throughput on purpose. It must
// never call FileSystem.Ledger() — the ledgerretain analyzer enforces
// that the service stays on the streaming path.
package serve
