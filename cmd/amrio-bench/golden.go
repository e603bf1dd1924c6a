package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/macsio"
)

// Output verification. Every op's simulated output is reduced to a
// SHA-256 over its canonical form and checked three ways:
//
//   - against bench/golden/<workload>.json when the generated inputs are
//     the ones the golden was written for (seed 1, or any seed for the
//     workloads whose inputs ignore it);
//   - against every other copy of the same op seen in this run — across
//     passes, and between the cold, warm and served paths, which must
//     agree on a case's digest;
//   - by whatever structural checks the workload adds (plot counts,
//     Cached flags, HTTP status).
//
// A mismatch is a failed op.

// caseDigest hashes a CaseOutput with the fields that legitimately
// differ between copies zeroed: host wall time, the cached flag, and
// the caller's row label.
func caseDigest(out campaign.CaseOutput) (string, error) {
	out.Result.Wall = 0
	out.Result.Case.Name = ""
	out.Cached = false
	data, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encode case output: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// macsioDigest hashes a MACSio run: its dump records and the
// filesystem's byte total.
func macsioDigest(recs []macsio.DumpRecord, totalBytes int64) (string, error) {
	data, err := json.Marshal(struct {
		Records    []macsio.DumpRecord `json:"records"`
		TotalBytes int64               `json:"total_bytes"`
	}{recs, totalBytes})
	if err != nil {
		return "", fmt.Errorf("encode macsio output: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// goldenFile is bench/golden/<workload>.json.
type goldenFile struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	InputsSHA256 string `json:"inputs_sha256"`
	// Outputs maps an op's key (case or config name) to the SHA-256
	// of its canonical simulated output.
	Outputs map[string]string `json:"outputs"`
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

// loadGolden returns the workload's golden outputs if the file exists
// and was written for exactly these generated inputs; nil otherwise.
func loadGolden(dir, workload, inputsSHA string) (map[string]string, error) {
	data, err := os.ReadFile(goldenPath(dir, workload))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	if g.InputsSHA256 != inputsSHA {
		return nil, nil
	}
	return g.Outputs, nil
}

func writeGolden(dir string, g goldenFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Workload), append(data, '\n'), 0o644)
}

// verifier accumulates digests for one workload. shared, when set,
// spans workloads: it is keyed by case fingerprint, so a case run cold
// in one workload and served warm in another must hash the same.
type verifier struct {
	golden map[string]string
	seen   map[string]string
	shared map[string]string
	// checked and mismatched count outputs, not ops.
	checked, mismatched int
}

func newVerifier(golden, shared map[string]string) *verifier {
	return &verifier{golden: golden, seen: map[string]string{}, shared: shared}
}

// check records one output's digest and reports whether it agrees with
// the golden and with every earlier copy. fingerprint may be empty.
func (v *verifier) check(key, fingerprint, digest string) bool {
	v.checked++
	ok := true
	if prev, dup := v.seen[key]; dup && prev != digest {
		ok = false
	}
	if _, dup := v.seen[key]; !dup {
		v.seen[key] = digest
	}
	if g, have := v.golden[key]; have && g != digest {
		ok = false
	}
	if fingerprint != "" && v.shared != nil {
		if prev, dup := v.shared[fingerprint]; dup && prev != digest {
			ok = false
		} else if !dup {
			v.shared[fingerprint] = digest
		}
	}
	if !ok {
		v.mismatched++
	}
	return ok
}
