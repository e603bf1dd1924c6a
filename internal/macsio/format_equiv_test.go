package macsio

import (
	"bytes"
	"fmt"
	"testing"
)

// The fmt originals of the strconv builders, kept only to pin that the
// builders reproduce their bytes.

func fmtDataPath(cfg Config, rank, step int) string {
	iface := ifaceToken(cfg.Interface)
	ext := ifaceExt(cfg.Interface)
	if cfg.FileMode == ModeSIF {
		return fmt.Sprintf("macsio_%s_%03d.%s", iface, step, ext)
	}
	group := rank
	if cfg.MIFFiles > 0 && cfg.MIFFiles < cfg.NProcs {
		group = rank % cfg.MIFFiles
	}
	return fmt.Sprintf("macsio_%s_%05d_%03d.%s", iface, group, step, ext)
}

func fmtRootPath(cfg Config, step int) string {
	return fmt.Sprintf("macsio_%s_root_%03d.%s", ifaceToken(cfg.Interface), step, ifaceExt(cfg.Interface))
}

func fmtJSONFileSize(nvals, varsPerPart int, metaSize int64) int64 {
	size := int64(len(jsonHeader(0, 0)))
	for v, n := range varCounts(nvals, varsPerPart) {
		if v > 0 {
			size++
		}
		size += int64(len(jsonVarOpen(v))) + int64(len(jsonVarClose))
		if n > 0 {
			size += int64(n)*jsonValueWidth + int64(n-1)
		}
	}
	return size + int64(len(jsonFooter)) + metaSize
}

func fmtBinaryFileSize(nvals, varsPerPart int, metaSize int64) int64 {
	size := int64(binFileHeader)
	for _, n := range varCounts(nvals, varsPerPart) {
		size += binVarHeader + int64(n)*8
	}
	return size + metaSize
}

func fmtEncodeRootMeta(cfg Config, step int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"macsio_root":{"step":"%03d","nprocs":%d,"interface":%q,"mode":%q,"dataset_growth":%.6f,"tasks":[`,
		step, cfg.NProcs, ifaceToken(cfg.Interface), string(cfg.FileMode), cfg.DatasetGrowth)
	for r := 0; r < cfg.NProcs; r++ {
		if r > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"task":%d,"parts":%d,"nominal_bytes":%d}`, r, cfg.partsForRank(r), cfg.NominalBytes(r, step))
	}
	buf.WriteString("]}}\n")
	return buf.Bytes()
}

// TestFormatBuildersMatchFmt pins dataPath, rootPath, the JSON and binary
// file-size models and EncodeRootMeta byte-identical to their fmt
// originals across file modes, interfaces, and ids past the zero-padded
// widths (rank >= 100000, step >= 1000, var >= 1000).
func TestFormatBuildersMatchFmt(t *testing.T) {
	ifaces := []Interface{IfaceMiftmpl, IfaceJSON, IfaceHDF5, IfaceSilo, "netcdf"}
	modes := []struct {
		mode FileMode
		mif  int
	}{{ModeMIF, 0}, {ModeMIF, 8}, {ModeMIF, 200000}, {ModeSIF, 0}}
	ranks := []int{0, 7, 99999, 100000, 123456, 1234567}
	steps := []int{0, 9, 999, 1000, 12345}
	for _, iface := range ifaces {
		for _, m := range modes {
			cfg := DefaultConfig()
			cfg.Interface, cfg.FileMode, cfg.MIFFiles = iface, m.mode, m.mif
			cfg.NProcs = 150000
			for _, step := range steps {
				if got, want := rootPath(cfg, step), fmtRootPath(cfg, step); got != want {
					t.Errorf("rootPath(%s, step %d) = %q, want %q", iface, step, got, want)
				}
				for _, rank := range ranks {
					if got, want := dataPath(cfg, rank, step), fmtDataPath(cfg, rank, step); got != want {
						t.Errorf("dataPath(%s %s %d, rank %d, step %d) = %q, want %q",
							iface, m.mode, m.mif, rank, step, got, want)
					}
				}
			}
		}
	}

	for _, nvals := range []int{0, 1, 7, 999, 1000, 1001, 123457} {
		for _, vars := range []int{0, 1, 3, 999, 1000, 1001, 2500} {
			for _, meta := range []int64{0, 77} {
				if got, want := jsonFileSize(nvals, vars, meta), fmtJSONFileSize(nvals, vars, meta); got != want {
					t.Errorf("jsonFileSize(%d, %d, %d) = %d, want %d", nvals, vars, meta, got, want)
				}
				if got, want := binaryFileSize(IfaceHDF5, nvals, vars, meta), fmtBinaryFileSize(nvals, vars, meta); got != want {
					t.Errorf("binaryFileSize(%d, %d, %d) = %d, want %d", nvals, vars, meta, got, want)
				}
			}
		}
	}

	for _, iface := range ifaces {
		for _, mode := range []FileMode{ModeMIF, ModeSIF, `odd"mode`} {
			for _, growth := range []float64{1, 1.015, 0.5, 1234.5678915, 1e-7} {
				for _, nprocs := range []int{1, 3, 1000} {
					cfg := DefaultConfig()
					cfg.Interface, cfg.FileMode, cfg.DatasetGrowth, cfg.NProcs = iface, mode, growth, nprocs
					cfg.AvgNumParts = 2.5
					for _, step := range []int{0, 5, 1000, 4321} {
						if got, want := EncodeRootMeta(cfg, step), fmtEncodeRootMeta(cfg, step); !bytes.Equal(got, want) {
							t.Errorf("EncodeRootMeta(%s %s growth %g nprocs %d step %d) differs from fmt:\n got %.200s\nwant %.200s",
								iface, mode, growth, nprocs, step, got, want)
						}
					}
				}
			}
		}
	}
}
