package macsio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Encoders for the data files. The miftmpl/json encoder emits real JSON
// with fixed-width scientific-notation numbers so that file sizes are an
// exact analytic function of the value count — that is what lets the
// size-only path (used at Summit scale) stay byte-identical to the data
// path, and it mirrors the textual inflation of MACSio's json-cwx output
// that the paper's Eq. 3 correction factor f absorbs.

// jsonValueWidth is the fixed width of one encoded double in Go's %.17e
// format: "d.ddddddddddddddddde+dd" = 23 characters (synthValue keeps
// values positive and in [1, 901), so there is never a sign or a third
// exponent digit).
const jsonValueWidth = 23

// synthValue produces a deterministic positive payload value. Positivity
// keeps the fixed-width invariant (no minus sign).
func synthValue(rank, step, v int) float64 {
	x := float64(v%977)*1.000001 + float64(rank%31)*0.01 + float64(step%17)*0.001
	return 1.0 + math.Mod(x, 900.0)
}

// jsonHeader renders the per-file preamble.
func jsonHeader(rank, step int) string {
	return fmt.Sprintf(`{"macsio":{"version":"1.1-go","interface":"miftmpl","task":"%05d","step":"%03d"},"mesh":{"type":"rectilinear","topodim":2},"vars":[`, rank, step)
}

const jsonFooter = "]}\n"

// jsonVarOpen renders one variable's opening; variable ids are fixed
// width (var000...).
func jsonVarOpen(v int) string {
	return fmt.Sprintf(`{"name":"var%03d","centering":"zone","data":[`, v)
}

const jsonVarClose = "]}"

// EncodeDataFile renders a rank's dump payload for the given interface.
// nvals is the total value count across all variables (vars get
// nvals/varsPerPart each, remainder to the first). metaSize appends a
// metadata blob of exactly that many bytes.
func EncodeDataFile(iface Interface, rank, step, nvals, varsPerPart int, metaSize int64) []byte {
	switch iface {
	case IfaceMiftmpl, IfaceJSON:
		return encodeJSONFile(rank, step, nvals, varsPerPart, metaSize)
	default:
		return encodeBinaryFile(iface, rank, step, nvals, varsPerPart, metaSize)
	}
}

// DataFileSize returns the exact byte count EncodeDataFile would produce.
func DataFileSize(iface Interface, nvals, varsPerPart int, metaSize int64) int64 {
	switch iface {
	case IfaceMiftmpl, IfaceJSON:
		return jsonFileSize(nvals, varsPerPart, metaSize)
	default:
		return binaryFileSize(iface, nvals, varsPerPart, metaSize)
	}
}

// varCounts splits nvals across variables.
func varCounts(nvals, varsPerPart int) []int {
	if varsPerPart < 1 {
		varsPerPart = 1
	}
	out := make([]int, varsPerPart)
	base := nvals / varsPerPart
	rem := nvals % varsPerPart
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

func encodeJSONFile(rank, step, nvals, varsPerPart int, metaSize int64) []byte {
	var buf bytes.Buffer
	buf.WriteString(jsonHeader(rank, step))
	counts := varCounts(nvals, varsPerPart)
	vi := 0
	for v, n := range counts {
		if v > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(jsonVarOpen(v))
		for k := 0; k < n; k++ {
			if k > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "%.17e", synthValue(rank, step, vi))
			vi++
		}
		buf.WriteString(jsonVarClose)
	}
	buf.WriteString(jsonFooter)
	appendMeta(&buf, metaSize)
	return buf.Bytes()
}

// jsonFileSize is len(encodeJSONFile(...)) for rank < 100000 and
// step < 1000, computed without rendering anything.
func jsonFileSize(nvals, varsPerPart int, metaSize int64) int64 {
	varsPerPart = max(varsPerPart, 1)
	base, rem := nvals/varsPerPart, nvals%varsPerPart
	size := int64(jsonHeaderLen+len(jsonFooter)+varsPerPart-1) + metaSize // commas between vars
	for v := 0; v < varsPerPart; v++ {
		// jsonVarOpen's id is %03d; its width grows past var999.
		size += int64(jsonVarOpenLen + max(3, decimalLen(v)) + len(jsonVarClose))
		n := int64(base)
		if v < rem {
			n++
		}
		if n > 0 {
			size += n*jsonValueWidth + n - 1 // values + commas
		}
	}
	return size
}

var (
	jsonHeaderLen  = len(jsonHeader(0, 0))
	jsonVarOpenLen = len(jsonVarOpen(0)) - 3 // without the id digits
)

// encodeBinaryFile approximates HDF5/silo output: a fixed-size header per
// file, a small per-variable header, then raw little-endian doubles.
const (
	binFileHeader = 512
	binVarHeader  = 128
)

func encodeBinaryFile(iface Interface, rank, step, nvals, varsPerPart int, metaSize int64) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, binFileHeader)
	copy(hdr, fmt.Sprintf("\x89%s\r\n task=%05d step=%03d", iface, rank, step))
	buf.Write(hdr)
	counts := varCounts(nvals, varsPerPart)
	vi := 0
	for v, n := range counts {
		vh := make([]byte, binVarHeader)
		copy(vh, fmt.Sprintf("var%03d n=%d", v, n))
		buf.Write(vh)
		vals := make([]float64, n)
		for k := range vals {
			vals[k] = synthValue(rank, step, vi)
			vi++
		}
		_ = binary.Write(&buf, binary.LittleEndian, vals)
	}
	appendMeta(&buf, metaSize)
	return buf.Bytes()
}

func binaryFileSize(_ Interface, nvals, varsPerPart int, metaSize int64) int64 {
	vars := int64(max(varsPerPart, 1)) // varCounts splits all nvals among them
	return binFileHeader + vars*binVarHeader + int64(nvals)*8 + metaSize
}

// appendMeta pads the buffer with exactly metaSize bytes of annotation.
func appendMeta(buf *bytes.Buffer, metaSize int64) {
	if metaSize <= 0 {
		return
	}
	blob := make([]byte, metaSize)
	for i := range blob {
		blob[i] = byte('a' + i%26)
	}
	buf.Write(blob)
}

// EncodeRootMeta renders the per-step root metadata file (Fig. 3's
// macsio_json_root_NNN.json): a task index with per-task nominal sizes.
func EncodeRootMeta(cfg Config, step int) []byte {
	b := make([]byte, 0, 160+48*cfg.NProcs)
	b = append(b, `{"macsio_root":{"step":"`...)
	b = appendZeroPadded(b, step, 3)
	b = append(b, `","nprocs":`...)
	b = strconv.AppendInt(b, int64(cfg.NProcs), 10)
	b = append(b, `,"interface":`...)
	b = strconv.AppendQuote(b, ifaceToken(cfg.Interface))
	b = append(b, `,"mode":`...)
	b = strconv.AppendQuote(b, string(cfg.FileMode))
	b = append(b, `,"dataset_growth":`...)
	b = strconv.AppendFloat(b, cfg.DatasetGrowth, 'f', 6, 64)
	b = append(b, `,"tasks":[`...)
	for r := 0; r < cfg.NProcs; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"task":`...)
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, `,"parts":`...)
		b = strconv.AppendInt(b, int64(cfg.partsForRank(r)), 10)
		b = append(b, `,"nominal_bytes":`...)
		b = strconv.AppendInt(b, cfg.NominalBytes(r, step), 10)
		b = append(b, '}')
	}
	return append(b, "]}}\n"...)
}

// rootMetaLen is len(EncodeRootMeta(cfg, step)), line by line, so the
// root metadata is priced without rendering it.
func rootMetaLen(cfg Config, step int) int64 {
	var buf [32]byte
	n := len(`{"macsio_root":{"step":"`) + max(3, decimalLen(step)) + len(`","nprocs":`) +
		len(strconv.AppendInt(buf[:0], int64(cfg.NProcs), 10)) +
		len(`,"interface":`) + len(strconv.AppendQuote(buf[:0], ifaceToken(cfg.Interface))) +
		len(`,"mode":`) + len(strconv.AppendQuote(buf[:0], string(cfg.FileMode))) +
		len(`,"dataset_growth":`) + len(strconv.AppendFloat(buf[:0], cfg.DatasetGrowth, 'f', 6, 64)) +
		len(`,"tasks":[`) + max(cfg.NProcs-1, 0) + len("]}}\n")
	for r := 0; r < cfg.NProcs; r++ {
		n += len(`{"task":`) + len(strconv.AppendInt(buf[:0], int64(r), 10)) +
			len(`,"parts":`) + len(strconv.AppendInt(buf[:0], int64(cfg.partsForRank(r)), 10)) +
			len(`,"nominal_bytes":`) + len(strconv.AppendInt(buf[:0], cfg.NominalBytes(r, step), 10)) + 1
	}
	return int64(n)
}

// JSONInflation returns the measured ratio of encoded JSON bytes to the
// nominal 8-byte-per-value payload — the textual factor the paper's f
// absorbs (roughly 3.1 for the fixed-width encoding).
func JSONInflation(nvals int) float64 {
	if nvals < 1 {
		nvals = 1
	}
	return float64(jsonFileSize(nvals, 1, 0)) / float64(int64(nvals)*8)
}
