package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestVerboseOutputPinned pins -v stdout, byte for byte, for the storage,
// fault, mitigation and aggregation invocations CI smoke-tests: Fig. 3,
// the burst timeline, the topology report, the characterization and the
// resilience and mitigation summaries are all read off the path log and
// fold attached before the run.
func TestVerboseOutputPinned(t *testing.T) {
	tiered := []string{"-storage", "bb+gpfs", "-nodes", "2", "-v", "--interface", "miftmpl",
		"--parallel_file_mode", "MIF", "8", "--num_dumps", "3", "--part_size", "1M",
		"--compute_time", "0.5", "--nprocs", "8"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"storage", tiered, "f765d1c346c002e49f59b47f36388e578422289bd0f72111411b44ec792a3a25"},
		{"faults", append(append([]string(nil), tiered...),
			"--faults", `{"events":[{"kind":"nic-degrade","start":0,"node":0,"factor":0.5}]}`),
			"1f39f363c030366fc2366564e2ad41e7c678aae9adeb9b2ea62aee9e78200f0c"},
		{"mitigation", []string{"--num_dumps", "8", "--nprocs", "16", "--part_size", "100000",
			"--compute_time", "1", "-nodes", "4", "-v",
			"-faults", "../../examples/faultplans/target-outage.json", "-mitigate", "default"},
			"ae177ddc45118e9b8c0dd9e60ed0a930dc460df2e663706994f91217395b2368"},
		{"aggregation", []string{"-nodes", "4", "-aggregation", "1/node", "-v", "--interface", "miftmpl",
			"--parallel_file_mode", "MIF", "16", "--num_dumps", "3", "--part_size", "1M", "--nprocs", "16"},
			"79d682ff2390b97b9c38561063491a9980dd71d63df329ed425d74f5767f992b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("stdout digest = %s, want %s\n%s", got, tc.want, out.String())
			}
		})
	}
}
