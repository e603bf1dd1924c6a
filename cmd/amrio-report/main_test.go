package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
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

// TestCalibrationExhibitsPinned pins the Fig. 9 calibration trace,
// Fig. 10's measured/model/proxy panels and Table III of the scaled
// pivot set, byte for byte. Fig. 9 and Table III do not depend on what
// the Eq. 3 factor is fitted against: Fig. 9 plots the kernel fit,
// whose base is the first plot's measured bytes, and Table III lists
// the runs themselves. The fig9 digest was re-recorded when a plot cell
// shared by two series began to show the collision marker '!' instead
// of the last series drawn there. The fig10 digest was recorded when
// each pivot variant got a panel of its own; the single twelve-series
// grid it replaced read 3b66662a0d5b8a9f9c5496a5e2b8a671f10028dc5bf53bd7901847f1a7aa6d39.
func TestCalibrationExhibitsPinned(t *testing.T) {
	for _, tc := range []struct {
		exhibit, want string
	}{
		{"fig9", "df7349a10c11931b6f668215f11224f9229de60e5ec9ead19411653b52f6d7e4"},
		{"fig10", "7ac5cc230bc1fdfcb412dd19fde96a252eb840e70571dd5fcc1fbfa45607fb82"},
		{"table3", "b570c88a3927051f3d588ece7ce97d614b7f42b2ea3e9383c9d9cd30a968ae00"},
	} {
		t.Run(tc.exhibit, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-exhibit", tc.exhibit, "-scale", "64"}, &out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("-exhibit %s -scale 64 stdout digest = %s, want %s\n%s", tc.exhibit, got, tc.want, out.String())
			}
		})
	}
}

// TestRunRejectsUnknownExhibit: a name that is not an exhibit, or a
// typo of one, fails naming the valid names instead of printing nothing.
func TestRunRejectsUnknownExhibit(t *testing.T) {
	for _, name := range []string{"bogus", "listing", "fig4"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-exhibit", name}, &out)
			if err == nil || !strings.Contains(err.Error(), "valid names: table1") || !strings.Contains(err.Error(), "listing1") {
				t.Errorf("err = %v, want the unknown name rejected with the valid names listed", err)
			}
			if out.Len() != 0 {
				t.Errorf("printed\n%s", out.String())
			}
		})
	}
}

// TestRunFromSavedResult: -results naming one result JSON runs the
// paper loop on that run, not on the pivot set: Listing 1 prints the
// command it translates into, and Fig. 10 replays it and prints the
// proxy's fidelity.
func TestRunFromSavedResult(t *testing.T) {
	out, err := campaign.NewExecutor(0, false).RunCase(campaign.Case4().Scaled(64), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case4.json")
	if err := out.Result.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		exhibit string
		want    *regexp.Regexp
	}{
		{"listing1", regexp.MustCompile(`(?m)^Listing 1: jsrun -n \d+ macsio .* --part_size \d+ `)},
		{"fig10", regexp.MustCompile(`(?m)^case4_div64 kernel MAPE \d+\.\d\d%; proxy fidelity: MAPE \d+\.\d\d%  Pearson \d\.\d{4}$`)},
	} {
		t.Run(tc.exhibit, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run([]string{"-results", path, "-exhibit", tc.exhibit}, &stdout); err != nil {
				t.Fatal(err)
			}
			got := stdout.String()
			if !tc.want.MatchString(got) {
				t.Errorf("no %v line in:\n%s", tc.want, got)
			}
			if strings.Contains(got, "case4_cfl") {
				t.Errorf("calibrated against the pivot set despite -results naming one run:\n%s", got)
			}
		})
	}
}

func TestRunMissingResult(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-results", filepath.Join(t.TempDir(), "missing.json")}, &stdout); err == nil {
		t.Error("missing -results file accepted")
	}
}

// TestListing1ExhibitWritesWhatTheRunWrote: the command -exhibit
// listing1 prints, parsed and run through MACSio on a model-only
// filesystem, writes a total that differs from the listed run's by no
// more than the proxy MAPE printed beside it, and that MAPE is itself
// within 25%.
func TestListing1ExhibitWritesWhatTheRunWrote(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-exhibit", "listing1", "-scale", "64"}, &stdout); err != nil {
		t.Fatal(err)
	}
	listing := stdout.String()
	c := campaign.Case4Variant(0.6, 4).Scaled(64)
	cmd := regexp.MustCompile(`(?m)^Listing 1: jsrun -n \d+ macsio (.*)$`).FindStringSubmatch(listing)
	mape := regexp.MustCompile(`proxy MAPE (\d+\.\d+)%`).FindStringSubmatch(listing)
	if cmd == nil || mape == nil || !strings.Contains(listing, c.Name+" (hydro engine) wrote") {
		t.Fatalf("no %s command or proxy MAPE in:\n%s", c.Name, listing)
	}
	cfg, err := macsio.ParseArgs(strings.Fields(cmd[1]))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := macsio.Run(iosim.New(iosim.DefaultConfig(), ""), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := campaign.NewExecutor(0, false).RunCase(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := strconv.ParseFloat(mape[1], 64)
	if bound > 25 {
		t.Errorf("printed proxy MAPE %.2f%% is beyond the 25%% the paper calls close enough:\n%s", bound, listing)
	}
	wrote, app := macsio.TotalBytes(recs), out.Result.TotalBytes()
	if off := 100 * math.Abs(float64(wrote-app)) / float64(app); off > bound {
		t.Errorf("the command writes %d bytes, %.2f%% off the application's %d, beyond the printed proxy MAPE %.2f%%:\n%s",
			wrote, off, app, bound, listing)
	}
}
