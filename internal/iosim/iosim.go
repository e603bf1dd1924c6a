package iosim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// Backend selects whether writes are materialized on the host filesystem.
type Backend int

const (
	// ModelOnly records writes in the ledger without touching disk.
	ModelOnly Backend = iota
	// RealDisk records writes and also writes the bytes to the host FS.
	RealDisk
)

// Config parameterizes the filesystem performance model. The defaults
// (DefaultConfig) are scaled to a Summit-like burst: a large shared
// aggregate bandwidth, a per-writer stream cap, and a small per-file open
// latency.
type Config struct {
	Backend Backend
	// AggregateBandwidth is the shared backend bandwidth in bytes/second.
	AggregateBandwidth float64
	// PerWriterBandwidth caps a single rank's stream in bytes/second.
	PerWriterBandwidth float64
	// OpenLatency is the fixed per-file cost in seconds.
	OpenLatency float64
	// JitterSigma is the sigma of the lognormal multiplicative jitter
	// applied to each write duration. Zero disables jitter.
	JitterSigma float64
	// Seed makes the jitter deterministic.
	Seed int64
	// Topology enables the distribution-mapping-aware per-link contention
	// model (per-node NIC caps, per-target NSD fan-in). The zero value
	// keeps the aggregate model byte-identical to historical behavior.
	Topology Topology
	// Storage selects the pricing stack New installs: "" or "gpfs" for
	// the historical aggregate/per-link models, "bb" for the node-local
	// burst buffer, "bb+gpfs" for the tiered composition (see storage.go).
	// Unknown names panic in New; validate with ParseStorage first.
	Storage string
	// BurstBuffer parameterizes the "bb"/"bb+gpfs" tiers; the zero value
	// selects the Summit NVMe defaults (DefaultBurstBuffer).
	BurstBuffer BurstBuffer
	// Aggregation turns bursts into two-phase collectives (intra-node
	// gather, then aggregator-only writes; see aggregation.go). The zero
	// value keeps the direct N-to-N write path byte-identical to
	// historical behavior. Invalid enabled specs panic in New; validate
	// with AggregationSpec.Validate first (the campaign and CLI layers do).
	Aggregation AggregationSpec
	// Faults installs the deterministic fault-injection seam (fault.go):
	// the injector prices writes on behalf of the storage model, charging
	// retry/replay time and relabeling failover targets. nil — the zero
	// value — keeps the write path byte-identical to the fault-free model.
	Faults FaultInjector
	// RetainLedger controls whether records stay in the shards once
	// streaming consumers (Attach) have folded them. The zero value
	// (RetainAuto) keeps historical full-ledger behavior for callers
	// without consumers and drops fed records for callers with them; see
	// consumer.go.
	RetainLedger Retention
}

// DefaultConfig returns a Summit-flavored model: 2.5 TB/s aggregate (the
// published Alpine peak), 2 GB/s per-writer stream, 0.5 ms opens, mild
// jitter.
func DefaultConfig() Config {
	return Config{
		Backend:            ModelOnly,
		AggregateBandwidth: 2.5e12,
		PerWriterBandwidth: 2.0e9,
		OpenLatency:        0.0005,
		JitterSigma:        0.15,
		Seed:               1,
	}
}

// Labels attach experiment coordinates to a write record so the ledger can
// be sliced the way the paper slices its data: per timestep, per AMR
// level, per MPI task.
type Labels struct {
	Step  int
	Level int
}

// WriteRecord is one entry in the ledger.
type WriteRecord struct {
	Rank     int
	Path     string
	Bytes    int64
	Start    float64 // simulated seconds since FileSystem creation
	Duration float64 // simulated seconds
	Labels   Labels
	// Dir marks a zero-byte directory-creation (metadata) record, so
	// file-count audits can separate data files from directories.
	Dir bool
	// Node and Target identify the link the write moved over when the
	// topology model is enabled: the writer's compute node and the storage
	// target its file fanned into. Both are -1 under the aggregate model,
	// and Target is -1 for metadata (Dir) records, which go to the
	// metadata service rather than an NSD data target.
	Node   int
	Target int
	// Tier labels the storage tier that absorbed the write under a
	// multi-tier storage model (TierBB / TierGPFS); empty under the
	// single-tier "gpfs" models, keeping historical ledgers byte-identical.
	Tier Tier
	// StallSeconds is the portion of Duration the writer spent throttled
	// to the drain rate because its burst-buffer partition was full.
	StallSeconds float64
	// DrainSeconds is the projected time for the writer's buffer
	// occupancy to drain to the backing tier after this write ended.
	DrainSeconds float64
	// BBFill is the writer's buffer-partition occupancy fraction (0..1)
	// right after the write; 0 under single-tier models.
	BBFill float64
	// Fault labels the injected-fault kind that touched this write
	// ("target-outage", "nic-degrade", "bb-loss"); empty — along with the
	// two fields below — without an installed FaultInjector, keeping
	// fault-free ledgers byte-identical.
	Fault string
	// Retries counts failed attempts (target outage) before the write
	// went through.
	Retries int
	// FaultSeconds is the portion of Duration attributable to injected
	// faults: retry backoff/timeouts, burst-buffer backlog replay, and
	// NIC-degradation slowdown.
	FaultSeconds float64
	// Mitigated names the resilience policy that absorbed a fault on
	// this write ("quarantine": the circuit breaker skipped the retry
	// storm and failed over immediately). Empty without a policy engine,
	// keeping fault-only and fault-free ledgers byte-identical.
	Mitigated string
	// GatherSeconds is the portion of Duration spent in the intra-node
	// gather phase under two-phase aggregation: the time this rank's
	// bytes took to reach its aggregator. 0 for aggregator ranks and
	// whenever aggregation is disabled.
	GatherSeconds float64
	// OpenSeconds is the portion of Duration spent on file-open/metadata
	// cost (the per-tier open latency scaled by the aggregation layout's
	// metadata model). Under aggregation only aggregator ranks open
	// files, so member records carry 0. Directory records carry their
	// whole Duration here.
	OpenSeconds float64
}

// shard is one rank's segment of the filesystem state: its ledger
// records, fault events, byte total and clock.
type shard struct {
	records []WriteRecord
	faults  []FaultEvent
	bytes   int64
	clock   float64
}

// FileSystem is the simulated parallel filesystem. Like bytes.Buffer it
// has a single writer: one goroutine calls its methods, and separate
// filesystems are independent (see the package comment).
type FileSystem struct {
	cfg  Config
	root string

	// model is the installed storage-tier pricing stack (storage.go).
	// It owns the contention snapshots; the FileSystem owns the ledger,
	// clocks, open latency, jitter, and link labels.
	model StorageModel

	// rpn is the most recently resolved ranks-per-node packing, used to
	// label ledger records with their node between bursts. Set by
	// BeginBurst; meaningful only when cfg.Topology is enabled.
	rpn int

	// burstN is the writer count of the most recent BeginBurst; Retarget
	// validates override maps against it once a burst has been declared.
	burstN int

	// retarget is the dynamically installed rank→target override
	// (Retarget / amr.RemapToTargets); nil selects cfg.Topology's own
	// placement, while a non-nil empty map overrides it with an empty
	// one. It layers over the configured TargetMap, so an inter-burst
	// reorganization can be undone with Retarget(nil).
	retarget []int

	// agg is the current burst's two-phase aggregation schedule
	// (aggregation.go); nil when Config.Aggregation is disabled. A pure
	// function of (topology, spec, writer count), rebuilt lazily at
	// BeginBurst and invalidated by Retarget, whose placement changes
	// move the aggregators' targets.
	agg *aggPlan

	// shards[rank] is rank's ledger segment. The slice only grows, so
	// Ledger's rank-major merge is a walk over it.
	shards []shard

	// subs are the attached streaming consumers (consumer.go), fed at
	// EndBurst and FlushConsumers.
	subs []LedgerConsumer
}

// New creates a filesystem with the given model configuration. root is the
// host directory used when Backend == RealDisk (ignored for ModelOnly, but
// still recorded for path bookkeeping). New panics on an unknown
// cfg.Storage name; validate user input with ParseStorage (the campaign
// and CLI layers do) so misconfigurations surface as errors instead.
func New(cfg Config, root string) *FileSystem {
	if cfg.Aggregation.Enabled() {
		if err := cfg.Aggregation.Validate(); err != nil {
			panic(fmt.Sprintf("iosim: invalid aggregation spec (validate configs with AggregationSpec.Validate): %v", err))
		}
	}
	fs := &FileSystem{cfg: cfg, root: root, rpn: cfg.Topology.ranksPerNode(0)}
	fs.model = newStorageModel(cfg, fs)
	return fs
}

// snapshotBandwidth returns the per-writer bandwidth when writers ranks
// contend for the shared backend (writers <= 1 means uncontended).
func snapshotBandwidth(cfg Config, writers int) float64 {
	bw := cfg.PerWriterBandwidth
	if writers > 1 {
		share := cfg.AggregateBandwidth / float64(writers)
		if share < bw {
			bw = share
		}
	}
	if bw <= 0 {
		bw = 1 // avoid division by zero in degenerate configs
	}
	return bw
}

// topology returns the effective topology: the configured one with any
// dynamically installed TargetMap override applied.
func (fs *FileSystem) topology() Topology {
	t := fs.cfg.Topology
	if fs.retarget != nil {
		t.TargetMap = fs.retarget
	}
	return t
}

// Retarget installs a rank→storage-target override for subsequent bursts
// — the inter-burst layout-reorganization hook (Wan et al.; maps come
// from amr.RemapToTargets). A nil map restores the configured placement.
// Retargeting is a no-op unless the topology models storage targets.
//
// The map is validated before it is installed: every entry must lie in
// [0, Targets), and once a burst width has been declared (BeginBurst),
// the map must cover exactly that many ranks — a short or out-of-range
// map would silently mislabel ledger records and index fan-in tables out
// of bounds, so it is rejected with an error instead.
//
// Retarget belongs between bursts, which is when layout reorganization
// happens: the storage model drops its contention table at EndBurst, so
// the next BeginBurst snapshots the new placement.
func (fs *FileSystem) Retarget(m []int) error {
	if !fs.cfg.Topology.Enabled() || fs.cfg.Topology.Targets <= 0 {
		return nil
	}
	if m == nil {
		fs.retarget = nil
		fs.agg = nil // member target labels follow the aggregator's placement
		return nil
	}
	if n := fs.burstN; n > 0 && len(m) != n {
		return fmt.Errorf("iosim: retarget map covers %d ranks, burst declares %d", len(m), n)
	}
	for r, tgt := range m {
		if tgt < 0 || tgt >= fs.cfg.Topology.Targets {
			return fmt.Errorf("iosim: retarget map sends rank %d to target %d, outside [0, %d)",
				r, tgt, fs.cfg.Topology.Targets)
		}
	}
	fs.retarget = append([]int{}, m...) // non-nil even when m is empty
	fs.agg = nil
	return nil
}

// aggPlanFor returns the two-phase schedule for an n-writer burst,
// rebuilding it when the writer count or placement changed. Only called
// with Config.Aggregation enabled.
func (fs *FileSystem) aggPlanFor(n int) *aggPlan {
	if fs.agg == nil || fs.agg.n != n {
		fs.agg = fs.cfg.Aggregation.plan(fs.topology(), n)
	}
	return fs.agg
}

// Config returns the model configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// BeginBurst declares that n writers participate in the upcoming I/O burst
// and delegates the contention snapshot to the installed StorageModel:
// the GPFS tier divides the aggregate bandwidth (or the per-link
// topology shares) among the burst's writers, the burst buffer
// additionally resolves each rank's NVMe partition. Every write reads the
// snapshot until EndBurst. The plotfile and MACSio writers call this once
// per dump with the number of ranks that will write. EndBurst resets to
// uncontended mode.
func (fs *FileSystem) BeginBurst(n int) {
	if n > 0 {
		fs.burstN = n
		fs.shardFor(n - 1) // grow once per burst, not from the write path
		if t := fs.cfg.Topology; t.Enabled() {
			fs.rpn = t.ranksPerNode(n) // node labels follow the burst's packing
		}
	}
	fs.model.BeginBurst(n)
}

// EndBurst marks the end of the current burst. It is also the streaming
// drain point: every record produced since the previous drain is fed to
// the attached consumers (consumer.go) — the burst's writes are complete
// here (a writer ends a burst after its last write), so consumers see
// whole bursts in deterministic rank-major order.
func (fs *FileSystem) EndBurst() {
	fs.model.EndBurst()
	fs.drainConsumers()
}

// linkOf returns the (node, target) labels for a data write by rank, or
// (-1, -1) under the aggregate model.
func (fs *FileSystem) linkOf(rank int) (node, target int) {
	t := fs.topology()
	if !t.Enabled() {
		return -1, -1
	}
	return t.nodeOf(rank, fs.rpn), t.TargetOf(rank)
}

// shardFor returns rank's shard, growing the table if needed. The pointer
// is valid until the next growth.
func (fs *FileSystem) shardFor(rank int) *shard {
	if rank >= len(fs.shards) {
		fs.shards = append(fs.shards, make([]shard, rank+1-len(fs.shards))...)
	}
	return &fs.shards[rank]
}

// jitter returns the deterministic lognormal factor for (rank, path). The
// hash input is the FNV-1a digest of "<seed>|<rank>|<path>", computed
// inline so the hot path allocates nothing.
func (fs *FileSystem) jitter(rank int, path string) float64 {
	if fs.cfg.JitterSigma == 0 {
		return 1
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var num [20]byte
	for _, c := range strconv.AppendInt(num[:0], fs.cfg.Seed, 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '|') * prime64
	for _, c := range strconv.AppendInt(num[:0], int64(rank), 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * prime64
	}
	u := h
	// Two uniforms from the hash bits -> one standard normal (Box-Muller).
	u1 := (float64(u>>11) + 0.5) / float64(1<<53)
	h = (h ^ 0xA5) * prime64
	u2 := (float64(h>>11) + 0.5) / float64(1<<53)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(fs.cfg.JitterSigma * z)
}

// Write records (and, for RealDisk, materializes) a file written by rank.
// It returns the simulated duration of the write.
func (fs *FileSystem) Write(rank int, path string, data []byte, labels Labels) (float64, error) {
	return fs.write(rank, path, int64(len(data)), data, labels)
}

// WriteSize records a write of nbytes without materializing data. The
// surrogate (Summit-scale) pipeline uses this so that 17-billion-cell
// meshes never allocate field memory.
func (fs *FileSystem) WriteSize(rank int, path string, nbytes int64, labels Labels) (float64, error) {
	return fs.write(rank, path, nbytes, nil, labels)
}

func (fs *FileSystem) write(rank int, path string, nbytes int64, data []byte, labels Labels) (float64, error) {
	if nbytes < 0 {
		return 0, fmt.Errorf("iosim: negative write size %d for %s", nbytes, path)
	}
	if rank < 0 {
		return 0, fmt.Errorf("iosim: negative rank %d for %s", rank, path)
	}
	if fs.cfg.Backend == RealDisk && data != nil {
		full := filepath.Join(fs.root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return 0, fmt.Errorf("iosim: mkdir for %s: %w", path, err)
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			return 0, fmt.Errorf("iosim: write %s: %w", path, err)
		}
	}

	node, target := fs.linkOf(rank)
	// Two-phase aggregation: members first gather their share to the
	// aggregator (phase one), their bytes then fan into the aggregator's
	// storage target, and only aggregators pay (scaled) open latency.
	// Without a plan every factor is the identity, keeping the direct
	// path byte-identical.
	gather, openScale := 0.0, 1.0
	if p := fs.agg; p != nil && rank < p.n {
		gather, openScale = p.gather(rank, nbytes), p.openScale[rank]
		if t := p.tgt[rank]; t >= 0 {
			target = t
		}
	}
	s := fs.shardFor(rank)
	start := s.clock
	// The model may keep per-rank state (burst-buffer occupancy) keyed on
	// rank's clock. The fault seam wraps the model call and may relabel
	// the target on failover; the write phase begins after the gather, so
	// the fault schedule sees start+gather.
	cost := fs.price(s, rank, start+gather, nbytes, node, &target)
	j := fs.jitter(rank, path)
	open := cost.OpenSeconds
	if open <= 0 {
		open = fs.cfg.OpenLatency // models that don't price opens inherit the config's
	}
	dur := (open*openScale + gather + cost.Seconds) * j
	s.clock = start + dur
	s.records = append(s.records, WriteRecord{
		Rank: rank, Path: path, Bytes: nbytes,
		Start: start, Duration: dur, Labels: labels,
		Node: node, Target: target,
		Tier: cost.Tier, StallSeconds: cost.StallSeconds * j,
		DrainSeconds: cost.DrainSeconds, BBFill: cost.BBFill,
		Fault: cost.Fault, Retries: cost.Retries,
		FaultSeconds:  cost.FaultSeconds * j,
		Mitigated:     cost.Mitigated,
		GatherSeconds: gather * j,
		OpenSeconds:   open * openScale * j,
	})
	s.bytes += nbytes
	return dur, nil
}

// Mkdir notes a directory creation (metadata op): it costs one open
// latency on rank's clock and appends a zero-byte record with Dir set so
// file-count audits can include directories if desired.
func (fs *FileSystem) Mkdir(rank int, path string, labels Labels) error {
	if rank < 0 {
		return fmt.Errorf("iosim: negative rank %d for %s", rank, path)
	}
	if fs.cfg.Backend == RealDisk {
		if err := os.MkdirAll(filepath.Join(fs.root, path), 0o755); err != nil {
			return fmt.Errorf("iosim: mkdir %s: %w", path, err)
		}
	}
	node, _ := fs.linkOf(rank)
	s := fs.shardFor(rank)
	start := s.clock
	s.clock = start + fs.cfg.OpenLatency
	s.records = append(s.records, WriteRecord{
		Rank: rank, Path: path,
		Start: start, Duration: fs.cfg.OpenLatency,
		Labels: labels, Dir: true,
		Node: node, Target: -1,
		OpenSeconds: fs.cfg.OpenLatency,
	})
	return nil
}

// AdvanceClock adds dt simulated seconds to rank's clock (used to model
// compute time between bursts, e.g. MACSio's --compute_time). Negative
// ranks have no shard and are ignored, matching Clock.
func (fs *FileSystem) AdvanceClock(rank int, dt float64) {
	if rank < 0 {
		return
	}
	fs.shardFor(rank).clock += dt
}

// Clock returns rank's current simulated time.
func (fs *FileSystem) Clock(rank int) float64 {
	if rank < 0 || rank >= len(fs.shards) {
		return 0
	}
	return fs.shards[rank].clock
}

// Ledger returns a merged copy of all write records in a deterministic
// order: ascending rank, then each rank's own program order. (Records
// carry Start timestamps for callers that want time ordering instead.)
func (fs *FileSystem) Ledger() []WriteRecord {
	var total int
	for i := range fs.shards {
		total += len(fs.shards[i].records)
	}
	out := make([]WriteRecord, 0, total)
	for i := range fs.shards {
		out = append(out, fs.shards[i].records...)
	}
	return out
}

// TotalBytes sums all recorded writes from the per-shard running totals.
func (fs *FileSystem) TotalBytes() int64 {
	var total int64
	for i := range fs.shards {
		total += fs.shards[i].bytes
	}
	return total
}

// BurstStat summarizes one I/O burst (one dump step), modeling the
// bulk-synchronous "compute then burst" pattern the paper describes.
// CharacterizeFold.Bursts computes them from the write stream.
type BurstStat struct {
	Step         int
	Bytes        int64
	Files        int     // data files written (directory records excluded)
	Dirs         int     // directory-creation metadata ops
	WallSeconds  float64 // max over ranks of per-rank time spent in this step
	MeanSeconds  float64 // mean over participating ranks
	EffectiveBW  float64 // Bytes / WallSeconds
	Participants int
	// Stragglers counts participating ranks whose time in this burst
	// exceeds 1.5x the mean — the tail that sets the bulk-synchronous
	// wall time.
	Stragglers int

	// Per-link aggregations, populated only when ledger records carry
	// topology labels (Node >= 0); all zero under the aggregate model.
	Nodes           int     // distinct compute nodes participating
	Links           int     // distinct (node, target) links carrying data
	MaxLinkSeconds  float64 // busiest link's transfer time
	MeanLinkSeconds float64 // mean transfer time across links
	LinkSkew        float64 // MaxLinkSeconds / MeanLinkSeconds (1 = balanced)
	NodeSkew        float64 // max/mean bytes per node (1 = balanced)

	// Storage-tier aggregations, populated only when records carry tier
	// labels (the "bb"/"bb+gpfs" models); all zero under single-tier
	// models.
	BBBytes      int64   // bytes absorbed at burst-buffer speed (TierBB)
	SpillBytes   int64   // bytes that stalled through to GPFS (TierGPFS)
	MaxBBFill    float64 // peak buffer-partition occupancy fraction
	StallSeconds float64 // max over ranks of time spent drain-stalled
	StallRanks   int     // ranks that stalled at least once (stragglers)
	DrainSeconds float64 // max over ranks of the post-burst drain tail

	// Fault aggregations, populated only when records carry fault labels
	// (an installed FaultInjector); all zero under fault-free runs.
	FaultWrites  int     // writes an injected fault touched
	Retries      int     // failed attempts summed over the burst's writes
	FaultSeconds float64 // max over ranks of time lost to injected faults
}

// burstLink keys one (node, target) link of a burst.
type burstLink struct{ node, target int }
