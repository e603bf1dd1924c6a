package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smallDeck is a seconds-free inputs file: 32² cells, one refined
// level, ten steps, a plotfile every five.
const smallDeck = `max_step = 10
amr.n_cell = 32 32
amr.max_level = 1
amr.plot_int = 5
nprocs = 2
`

func TestRunSmallDeck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inputs.2d")
	if err := os.WriteFile(path, []byte(smallDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-inputs", path, "-dist", "sfc"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !regexp.MustCompile(`(?m)^completed: 10 steps, t = \S+, 3 plotfiles, finest level 1$`).MatchString(got) {
		t.Errorf("missing or wrong completed: line in\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^total: \S+ \S+ in [1-9]\d* records$`).MatchString(got) {
		t.Errorf("missing or wrong total: line in\n%s", got)
	}
}

func TestRunRejectsUnknownDist(t *testing.T) {
	err := run([]string{"-dist", "bogus"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `amr: unknown distribution strategy "bogus"`) {
		t.Fatalf("err = %v, want amr's unknown-strategy error", err)
	}
}

// runBadDeck runs the command in a child process on smallDeck plus
// extra and requires exit status 1 with want on stderr and no run on
// stdout. The child is this test binary re-running the test named name,
// given main's arguments after "--"; each such test calls runBadDeck
// first, which in the child runs main instead.
func runBadDeck(t *testing.T, name, extra, want string) {
	t.Helper()
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"castro-sedov"}, args...)
		main()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), "inputs.2d")
	if err := os.WriteFile(path, []byte(smallDeck+extra), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "--", "-inputs", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit status 1; stdout:\n%s", err, out)
	}
	if !strings.Contains(stderr.String(), want) || strings.Contains(string(out), "completed:") {
		t.Errorf("stderr %q, stdout %q; want %q and no run", stderr.String(), out, want)
	}
}

// TestNaNInitShrinkExitsNonZero: a deck whose castro.init_shrink is NaN
// stops at validation, before a step is taken, where it once completed
// a step to t = NaN and exited 0.
func TestNaNInitShrinkExitsNonZero(t *testing.T) {
	runBadDeck(t, "TestNaNInitShrinkExitsNonZero", "castro.init_shrink = NaN\n",
		"castro.init_shrink must be in (0,1]")
}

// TestOffGridNCellExitsNonZero: an amr.n_cell off the blocking-factor
// grid stops at validation, as AMReX stops at startup, where a 36² deck
// once ran to completion off the grid its fine levels align to.
func TestOffGridNCellExitsNonZero(t *testing.T) {
	runBadDeck(t, "TestOffGridNCellExitsNonZero", "amr.n_cell = 36 36\n",
		"amr.n_cell [36 36] not a multiple of blocking_factor 8")
}

// TestVerboseOutputPinned pins the default Listing 2 deck's -v stdout,
// byte for byte: the Fig. 2 tree, the burst timeline and the Darshan-style
// characterization are all read off the path log and fold attached
// before the run, so any drift in the write stream or in what reduces it
// changes the digest.
func TestVerboseOutputPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-v"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"I/O burst timeline", "I/O characterization (Darshan-style)"} {
		if !strings.Contains(out.String(), section) {
			t.Errorf("-v output lacks %q", section)
		}
	}
	sum := sha256.Sum256(out.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "d8767413133e6e9659ba90367330b5ae0103d413086911a3be425eaa21b1bdff"; got != want {
		t.Errorf("castro-sedov -v stdout digest = %s, want %s\n%s", got, want, out.String())
	}
}
