package iosim

import (
	"reflect"
	"testing"
)

// recordingConsumer captures the stream for order/retention assertions.
type recordingConsumer struct {
	records []WriteRecord
	flushes int
}

func (c *recordingConsumer) Consume(r WriteRecord) { c.records = append(c.records, r) }
func (c *recordingConsumer) Flush()                { c.flushes++ }

// byStep splits a record sequence into per-step subsequences, order
// preserved. The streaming contract promises per-step subsequence
// equality with Ledger() order, not whole-stream equality: the stream
// is burst-major, the batch ledger rank-major over the whole run.
func byStep(records []WriteRecord) map[int][]WriteRecord {
	out := map[int][]WriteRecord{}
	for _, r := range records {
		out[r.Labels.Step] = append(out[r.Labels.Step], r)
	}
	return out
}

// burstWrite drives one burst of n ranks, each writing one record, the
// way plotfile does: BeginBurst, all writes, EndBurst.
func burstWrite(t *testing.T, fs *FileSystem, step, n int) {
	t.Helper()
	fs.BeginBurst(n)
	for rank := 0; rank < n; rank++ {
		if _, err := fs.WriteSize(rank, "s/f.dat", 1000, Labels{Step: step}); err != nil {
			t.Fatal(err)
		}
	}
	fs.EndBurst()
}

func TestConsumerStreamMatchesLedgerPerStep(t *testing.T) {
	// Two filesystems, same writes: one batch (Ledger), one streaming.
	// Bursts align with steps, so every per-step subsequence of the
	// stream must match the batch ledger's (rank-ascending, program
	// order within a rank) — the determinism contract the fold
	// equivalence rests on.
	batch := modelFS()
	stream := modelFS()
	rec := &recordingConsumer{}
	stream.Attach(rec)
	for step := 0; step < 3; step++ {
		burstWrite(t, batch, step, 4)
		burstWrite(t, stream, step, 4)
	}
	stream.FlushConsumers()
	if rec.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", rec.flushes)
	}
	if len(rec.records) != 12 {
		t.Fatalf("stream delivered %d records, want 12", len(rec.records))
	}
	if !reflect.DeepEqual(byStep(rec.records), byStep(batch.Ledger())) {
		t.Errorf("per-step stream order != per-step batch order\nstream: %+v\nbatch:  %+v",
			rec.records, batch.Ledger())
	}
}

func TestRetainAutoDropsWhenConsuming(t *testing.T) {
	fs := modelFS() // RetainAuto (zero value)
	rec := &recordingConsumer{}
	fs.Attach(rec)
	burstWrite(t, fs, 0, 4)
	if got := len(fs.Ledger()); got != 0 {
		t.Errorf("ledger holds %d records after drain under RetainAuto+consumer, want 0", got)
	}
	if len(rec.records) != 4 {
		t.Errorf("consumer saw %d records, want 4", len(rec.records))
	}
	if fs.TotalBytes() != 4000 {
		t.Errorf("TotalBytes = %d after drop, want 4000", fs.TotalBytes())
	}
}

func TestRetainAutoKeepsWithoutConsumers(t *testing.T) {
	fs := modelFS()
	burstWrite(t, fs, 0, 4)
	if got := len(fs.Ledger()); got != 4 {
		t.Errorf("ledger holds %d records without consumers, want 4", got)
	}
}

func TestRetainNoneDropsWithoutConsumers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0
	cfg.RetainLedger = RetainNone
	fs := New(cfg, "")
	burstWrite(t, fs, 0, 4)
	if got := len(fs.Ledger()); got != 0 {
		t.Errorf("ledger holds %d records under RetainNone, want 0", got)
	}
	if fs.TotalBytes() != 4000 {
		t.Errorf("TotalBytes = %d after drop, want 4000", fs.TotalBytes())
	}
	// Clocks survive the drop: the next burst prices against the same
	// simulated time it would have without streaming.
	if fs.Clock(0) <= 0 {
		t.Error("rank clock lost with dropped records")
	}
}

func TestLedgerReturnsUnfedTailOnly(t *testing.T) {
	fs := modelFS()
	fs.Attach(&recordingConsumer{})
	burstWrite(t, fs, 0, 2)
	// Writes outside any burst are not yet drained.
	if _, err := fs.WriteSize(0, "tail.dat", 500, Labels{Step: 1}); err != nil {
		t.Fatal(err)
	}
	led := fs.Ledger()
	if len(led) != 1 || led[0].Path != "tail.dat" {
		t.Fatalf("undrained tail = %+v, want the single tail.dat record", led)
	}
	fs.FlushConsumers()
	if got := len(fs.Ledger()); got != 0 {
		t.Errorf("ledger holds %d records after FlushConsumers, want 0", got)
	}
}

func TestBurstStatsIsFoldFedFromSlice(t *testing.T) {
	fs := modelFS()
	for step := 0; step < 3; step++ {
		burstWrite(t, fs, step, 4)
	}
	led := fs.Ledger()
	f := NewCharacterizeFold()
	for _, r := range led {
		f.Consume(r)
	}
	if !reflect.DeepEqual(f.Bursts(), Fold(led).Bursts()) {
		t.Error("CharacterizeFold.Bursts != Fold(ledger).Bursts over the same ledger")
	}
}

func TestCharacterizeFoldMatchesBatch(t *testing.T) {
	// Streamed fold over live bursts == batch Fold over the
	// retained ledger of an identical run.
	batch := modelFS()
	stream := modelFS()
	fold := NewCharacterizeFold()
	stream.Attach(fold)
	for step := 0; step < 4; step++ {
		burstWrite(t, batch, step, 6)
		burstWrite(t, stream, step, 6)
	}
	stream.FlushConsumers()
	got := fold.Profile()
	want := Fold(batch.Ledger()).Profile()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold profile != batch profile\nfold:  %+v\nbatch: %+v", got, want)
	}
	if !reflect.DeepEqual(fold.Bursts(), Fold(batch.Ledger()).Bursts()) {
		t.Error("fold bursts != batch bursts")
	}
}
