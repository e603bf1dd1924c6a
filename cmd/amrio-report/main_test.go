package main

import (
	"bytes"
	"regexp"
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
