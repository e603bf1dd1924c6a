package main

import (
	"fmt"
	"os"
	"time"

	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
)

// macsioRunner is macsio-wide: the proxy itself. An op is one
// macsio.Run on a fresh filesystem.
type macsioRunner struct {
	opsList []macsioOp

	cur  int
	recs []macsio.DumpRecord
	fs   *iosim.FileSystem
}

func newMacsioWide(seed int64, sz sizes) (runner, error) {
	return &macsioRunner{opsList: macsioOps(seed, sz.macsioDumps)}, nil
}

func (r *macsioRunner) inputs() any          { return r.opsList }
func (r *macsioRunner) ops() int             { return len(r.opsList) }
func (r *macsioRunner) close()               {}
func (r *macsioRunner) beginPass() error     { return nil }
func (r *macsioRunner) verify(_, _ int) bool { return true }
func (r *macsioRunner) finish(*passResults)  {}

// setup runs the first config once, so the SPMD and pricing paths are
// faulted in before timing.
func (r *macsioRunner) setup() error { return r.op(0) }

func (r *macsioRunner) op(i int) (err error) {
	r.cur = i
	op := r.opsList[i]
	r.fs = iosim.New(macsioFS(op), "")
	r.recs, err = macsio.Run(r.fs, op.Cfg)
	return err
}

func (r *macsioRunner) check(v *verifier) int {
	op := r.opsList[r.cur]
	bad := 0
	if len(r.recs) != op.Cfg.NProcs*op.Cfg.NumDumps {
		bad++
	}
	digest, err := macsioDigest(r.recs, r.fs.TotalBytes())
	if err != nil || !v.check(op.Name, "", digest) {
		bad++
	}
	return bad
}

func (r *macsioRunner) trace(i int, tc *traceCtx) error {
	acc := tc.acc
	op := r.opsList[i]
	r.cur = i

	// The real op. With no consumer attached the filesystem retains its
	// ledger, which the replays below re-issue.
	r.fs = iosim.New(macsioFS(op), "")
	var recs []macsio.DumpRecord
	root, opNS, err := tc.realOp(func() (err error) {
		recs, err = macsio.Run(r.fs, op.Cfg)
		return err
	})
	if err != nil {
		tc.failed++
		return nil
	}
	r.recs = recs
	if r.check(tc.ver) > 0 {
		tc.failed++
	}
	acc.sample("macsio.run_ms", float64(opNS)/1e6)
	acc.sample("macsio.dump_ms", float64(opNS)/1e6/float64(op.Cfg.NumDumps))
	acc.add("macsio.records", float64(len(recs)))
	acc.sample("macsio.rootmeta_us", meanUS(16, func() { _ = macsio.EncodeRootMeta(op.Cfg, 0) }))

	// The ledger is rank-major; split it by dump step, which keeps
	// each dump rank-major — the order the streaming drain feeds folds.
	byStep := make([][]iosim.WriteRecord, op.Cfg.NumDumps)
	for _, rec := range r.fs.Ledger() {
		if rec.Labels.Step < 0 || rec.Labels.Step >= len(byStep) {
			return fmt.Errorf("record labeled step %d of %d", rec.Labels.Step, len(byStep))
		}
		byStep[rec.Labels.Step] = append(byStep[rec.Labels.Step], rec)
	}

	// mpisim: one world for the whole run, two barriers a dump.
	n := op.Cfg.NProcs
	acc.set("mpisim.goroutines", float64(n))
	id := tc.tr.begin("mpisim.spmd", tc.op, root)
	ns, msgs, err := spmdReplay(n, 2*op.Cfg.NumDumps)
	tc.tr.end(id)
	if err != nil {
		return err
	}
	acc.sample("mpisim.spmd_us_per_burst", float64(ns)/1e3/float64(op.Cfg.NumDumps))
	acc.sample("mpisim.msgs_per_burst", float64(msgs)/float64(op.Cfg.NumDumps))

	// iosim pricing: the dumps re-issued rank-major on a fresh model.
	cfg := macsioFS(op)
	cfg.RetainLedger = iosim.RetainNone
	fs := iosim.New(cfg, "")
	var writes int
	for _, burst := range byStep {
		if op.Cfg.ComputeTime > 0 {
			for rk := 0; rk < n; rk++ {
				fs.AdvanceClock(rk, op.Cfg.ComputeTime)
			}
		}
		id := tc.tr.begin("iosim.price", tc.op, root)
		fs.BeginBurst(n)
		for _, rec := range burst {
			if _, err := fs.WriteSize(rec.Rank, rec.Path, rec.Bytes, rec.Labels); err != nil {
				return err
			}
		}
		fs.EndBurst()
		ns := tc.tr.end(id)
		if len(burst) > 0 {
			acc.sample("iosim.price_ns_per_write", float64(ns)/float64(len(burst)))
		}
		writes += len(burst)
	}
	acc.add("iosim.writes", float64(writes))
	acc.add("iosim.bytes", float64(fs.TotalBytes()))

	// macsio's own encoder on the path: one root metadata file a dump.
	id = tc.tr.begin("macsio.rootmeta", tc.op, root)
	for step := 0; step < op.Cfg.NumDumps; step++ {
		_ = macsio.EncodeRootMeta(op.Cfg, step)
	}
	tc.tr.end(id)

	// iosim fold over the run's stream, dump by dump. macsio.Run attaches
	// no fold, so this is a diagnostic outside the op's spans: what a
	// caller that characterizes the run (cmd/macsio does) pays on top.
	fold := iosim.NewCharacterizeFold()
	t0 := time.Now()
	for _, burst := range byStep {
		for _, rec := range burst {
			fold.Consume(rec)
		}
	}
	fold.Flush()
	bursts := fold.Bursts()
	profile := fold.Profile()
	if writes > 0 {
		acc.sample("iosim.fold_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(writes))
	}
	for _, b := range bursts {
		acc.add("iosim.burst_wall_s", b.WallSeconds)
		acc.add("iosim.stall_s", b.StallSeconds)
	}

	// The replay must have moved what the program moved.
	switch {
	case fs.TotalBytes() != r.fs.TotalBytes():
		err = fmt.Errorf("pricing replay wrote %d bytes, real op %d", fs.TotalBytes(), r.fs.TotalBytes())
	case profile.TotalBytes != r.fs.TotalBytes() || profile.TotalWrites != writes:
		err = fmt.Errorf("fold saw %d bytes in %d writes, real op %d in %d", profile.TotalBytes, profile.TotalWrites, r.fs.TotalBytes(), writes)
	case len(bursts) != op.Cfg.NumDumps:
		err = fmt.Errorf("fold saw %d bursts, run wrote %d dumps", len(bursts), op.Cfg.NumDumps)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrio-bench: replay of %s diverged: %v\n", op.Name, err)
		tc.failed++
	}
	return nil
}
