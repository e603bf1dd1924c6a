package main

import (
	"bytes"
	"strings"
	"testing"
)

// small is a four-rank, two-dump run that prices in milliseconds.
var small = []string{"--num_dumps", "2", "--nprocs", "4", "--part_size", "1000"}

func TestRunSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run(small, &out); err != nil {
		t.Fatal(err)
	}
	want := `macsio: macsio --interface miftmpl --parallel_file_mode MIF 4 --num_dumps 2 --part_size 1000 --avg_num_parts 1 --vars_per_part 1 --dataset_growth 1.000000 --nprocs 4
bytes per dump step:
  dump   0  12.7 KB
  dump   1  12.7 KB
total: 25.4 KB across 8 dump records
`
	if got := out.String(); got != want {
		t.Errorf("stdout =\n%s\nwant\n%s", got, want)
	}
}

// TestRunRejectsTrailingValueFlag: a value flag given last has no value,
// and the run must fail naming it instead of running without it.
func TestRunRejectsTrailingValueFlag(t *testing.T) {
	for _, flag := range []string{
		"-outdir", "-storage", "-aggregation", "-faults", "-mitigate", "-nodes", "-targets",
		"--storage", "--nodes",
	} {
		t.Run(flag, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append(append([]string(nil), small...), flag), &out)
			if err == nil || !strings.Contains(err.Error(), flag+" needs a value") {
				t.Errorf("err = %v, want %s named as missing its value", err, flag)
			}
			if out.Len() != 0 {
				t.Errorf("ran and printed\n%s", out.String())
			}
		})
	}
}

func TestRunTargetsRequiresNodes(t *testing.T) {
	err := run(append([]string{"-targets", "3"}, small...), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "-targets requires -nodes") {
		t.Fatalf("err = %v, want -targets to require -nodes", err)
	}
}
