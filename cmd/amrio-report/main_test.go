package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"strings"
	"testing"
)

// TestTable3WithoutResults: with no saved results, Table III lists the
// four case4 pivot runs it executes on the spot.
func TestTable3WithoutResults(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exhibit", "table3", "-scale", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^case4_cfl[36]_maxl[24]_div64 .* hydro +21 +\S+ \S+ *$`).FindAllString(out.String(), -1)
	if len(rows) != 4 {
		t.Errorf("Table III has %d pivot rows, want 4:\n%s", len(rows), out.String())
	}
}

// TestStructuralFiguresPinned pins the Fig. 2 plotfile tree and the
// Fig. 3 N-to-N layout, byte for byte: both list the paths of a small
// run's write stream in rank-major program order, so any drift in what
// is written, or in the order the figure lists it, changes the digest.
func TestStructuralFiguresPinned(t *testing.T) {
	for _, tc := range []struct {
		exhibit, title, want string
	}{
		{"fig2", "Fig. 2:", "d09abc4b7e88515ca242cf3017e8abe15b71216165caef5c1f11257decacad92"},
		{"fig3", "Fig. 3:", "debf48eb3d72095c823bdc950eb442e647d08f6e6aba5439ee938cf3c430b6e2"},
	} {
		t.Run(tc.exhibit, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-exhibit", tc.exhibit}, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.title) {
				t.Errorf("-exhibit %s output lacks %q", tc.exhibit, tc.title)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("-exhibit %s stdout digest = %s, want %s\n%s", tc.exhibit, got, tc.want, out.String())
			}
		})
	}
}
