package iosim

// Streaming ledger consumption (Design 10): instead of materializing the
// full WriteRecord ledger and reducing it after the run, consumers fold
// records as bursts complete. A 512-rank, many-step case holds millions
// of records; the folds hold per-step aggregates, so a campaign sweep's
// memory stays O(bursts), not O(writes). The related ADIOS2 work (Fredj
// et al., PAPERS.md) motivates exactly this shape: reduce output where it
// is produced instead of buffering it.
//
// Determinism contract: records are fed in ascending-rank order, each
// rank's records in its own program order, one drain per burst (EndBurst)
// plus a final drain at FlushConsumers. For writers that align bursts
// with steps (plotfile and MACSio both do — every record of a step is
// produced between one BeginBurst/EndBurst pair), every per-step
// subsequence of the stream is byte-identical to the same ledger's
// Ledger() order, which is what makes the fold-vs-batch property pins
// (fold_equiv tests) exact rather than approximate.

// LedgerConsumer folds the write stream as it is produced. Consume is
// called once per record, from the FileSystem's writer as it ends the
// burst; Flush marks end-of-stream (FlushConsumers). A consumer must not
// call back into the FileSystem that feeds it.
type LedgerConsumer interface {
	Consume(WriteRecord)
	Flush()
}

// Retention selects what happens to ledger records once they have been
// fed to the attached consumers.
type Retention int

const (
	// RetainAuto — the zero value — keeps the full ledger unless
	// consumers are attached: historical batch behavior for every
	// existing caller, O(bursts) memory as soon as a fold subscribes.
	RetainAuto Retention = iota
	// RetainAll always keeps the full ledger, even while streaming —
	// for callers that want both the folds and a post-hoc Ledger().
	RetainAll
	// RetainNone drops records at every drain point, with or without
	// consumers. TotalBytes and the rank clocks survive; Ledger()
	// returns only what has not yet been drained.
	RetainNone
)

// Attach subscribes consumers to the write stream. Attach before the
// first write: records produced earlier are still delivered (the first
// drain covers them), but the retention decision for RetainAuto is read
// at each drain, so attaching mid-run flips retention mid-ledger.
func (fs *FileSystem) Attach(consumers ...LedgerConsumer) {
	fs.subs = append(fs.subs, consumers...)
}

// retains reports whether drained records stay in the shards.
func (fs *FileSystem) retains(haveConsumers bool) bool {
	switch fs.cfg.RetainLedger {
	case RetainAll:
		return true
	case RetainNone:
		return false
	default:
		return !haveConsumers
	}
}

// drainConsumers feeds every record produced since the previous drain to
// the attached consumers straight from the shards, ascending rank,
// program order within a rank, then advances each shard's watermark or
// truncates it.
func (fs *FileSystem) drainConsumers() {
	retain := fs.retains(len(fs.subs) > 0)
	if len(fs.subs) == 0 && retain {
		return // nothing to feed, nothing to drop
	}
	for i := range fs.shards {
		s := &fs.shards[i]
		for _, r := range s.records[s.fed:] {
			for _, c := range fs.subs {
				c.Consume(r)
			}
		}
		if retain {
			s.fed = len(s.records)
		} else {
			s.records = s.records[:0]
			s.fed = 0
		}
	}
}

// FlushConsumers drains any records not yet delivered (writes outside a
// burst, or after the last EndBurst) and signals end-of-stream to every
// attached consumer. Call it once, after the run's last write.
func (fs *FileSystem) FlushConsumers() {
	fs.drainConsumers()
	for _, c := range fs.subs {
		c.Flush()
	}
}
