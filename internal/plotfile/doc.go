// Package plotfile implements the AMReX plotfile output format the paper's
// Fig. 2 diagrams: a per-step directory containing a top-level Header and
// job_info, and one Level_N subdirectory per mesh level holding an ASCII
// Cell_H metadata file plus binary Cell_D_XXXXX data files written in the
// N-to-N pattern — one file per MPI task per level, and only when the task
// owns data at that level.
//
// # Writer
//
// A dump is one iosim burst priced in one plain sequence on the caller's
// goroutine: rank 0's metadata (directories, Header, job_info, Cell_H),
// then every rank's Cell_D files in rank-major order — AMReX's ordering,
// where ranks write data only once the directory structure exists. No
// rank goroutines or barriers are needed: iosim prices each write from
// its rank, that rank's clock and the size alone, so the order in which
// ranks are visited changes no record. Every record is labeled with
// (step, level) so the analysis layer can reconstruct the paper's Eq. (2)
// hierarchy of output sizes. Checkpoint output (checkpoint.go) is the
// same sequence for the conserved state and restarts exactly from it.
//
// Every file is priced at its exact size and serialized only on
// RealDisk: each write hands iosim its size and its encoder, and iosim
// alone decides whether to encode. The sizes are arithmetic — CellDBytes
// per FAB record, and for rank 0's Header, job_info, each Cell_H and the
// checkpoint Header a sum over the lines its encoder would append
// (Cell_H's FabOnDisk offsets from one per-rank slice, whose totals are
// then the Cell_D sizes). So a model-only dump never encodes, and a level
// with nil State (or a SizeOnly checkpoint) is priced by size even on
// RealDisk: the Summit-scale surrogate pipeline runs entirely on sizes,
// which is why 17-billion-cell dumps never allocate field memory. A
// RealDisk write fails if its encoding is not the priced length, and
// TestModelOnlyMetaSizeMatchesEncode pins every metadata length to len
// of its encoder over random specs.
//
// The length mirrors (headerLen, jobInfoLen, cellHLen,
// checkpointHeaderLen) duplicate their encoders' line structure on
// purpose; rendering instead is measurably slower. A prototype that
// rendered Header, job_info and Cell_H into one reused buffer on every
// backend kept every encoder pin and TestModelOnlyPlotMetaAllocations
// green, but cost 7 % of the sweep-cold benchmark's cases per second
// (1251 → 1161, slower in 8 of 8 paired runs) and 6 % of summit-stack's
// (12.14 → 11.43, slower in 5 of 6). A single writer with a render and
// a count mode sharing one definition per format saved only 21 lines,
// and its speed was not measured.
//
// # The byte-identical encoder pin
//
// Encoders are allocation-frugal by design: encodeCellD preallocates the
// exact CellDBytes buffer and emits float64 rows with math.Float64bits —
// one allocation per Cell_D file, no reflection — and the ASCII metadata
// encoders (EncodeHeader, EncodeCellH) are strconv-append builders rather
// than per-box fmt.Fprintf calls. Their outputs are pinned byte-identical
// to the seed's original fmt/binary.Write encoders by equivalence tests
// (encode_equiv_test.go) that re-implement the historical encoders and
// compare outputs across mesh shapes. That pin is a contract: any future
// encoder change must preserve the on-disk format bit-for-bit, because
// ledger byte counts — the paper's measured quantity — and the reader's
// round-trip both depend on it. CI runs an allocation gate
// (TestEncodeCellDAllocations) so the O(1)-allocation property can't
// silently regress either.
package plotfile
