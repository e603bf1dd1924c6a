// Command amrio-bench is the repository's benchmark: six named,
// seeded workloads, end-to-end metrics from a timed pass, per-layer
// metrics from a traced pass that replays each layer from outside, and
// output verification against goldens. bench/README.md has the tables.
//
//	go run ./cmd/amrio-bench -seed 1 -out bench/out/result.json   # the whole suite
//	go run ./cmd/amrio-bench -workload sweep-cold -seed 7 -seconds 12 -trace 0
//	go run ./cmd/amrio-bench -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics} — the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1 — which is the form
// BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

const defaultSeconds = 12

func main() {
	var (
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		out          = flag.String("out", "", "write the result JSON here (suite mode)")
		seconds      = flag.Float64("seconds", defaultSeconds, "timed-pass budget per workload, in seconds")
		workload     = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all six)")
		trace        = flag.String("trace", "", "with -workload: 0 = timed + memory passes, 1 = traced pass (default: all three)")
		smoke        = flag.Bool("smoke", false, "tiny pass counts, same code paths")
		updateGolden = flag.Bool("update-golden", false, "write bench/golden/<workload>.json from this run instead of checking it")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		goldenDir    = flag.String("golden-dir", "bench/golden", "where the goldens live")
		traceDir     = flag.String("trace-dir", "bench/out", "where trace-<workload>.json files go")
		commit       = flag.String("commit", "", "commit to record in the result (default: the build's vcs.revision)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	opt := runOptions{
		seconds: *seconds, timed: true, traced: true, memory: true,
		sz: fullSizes, goldenDir: *goldenDir, traceDir: *traceDir,
		updateGolden: *updateGolden, setupReps: 3,
	}
	if *smoke {
		opt.sz, opt.seconds, opt.setupReps = smokeSizes, 0, 1
	}

	if *workload != "" {
		def := workloadByName(*workload)
		if def == nil {
			fatalf("unknown workload %q (have: %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		switch *trace {
		case "":
		case "0":
			opt.traced = false
		case "1":
			opt.timed, opt.memory, opt.setupReps = false, false, 1
		default:
			fatalf("-trace takes 0 or 1")
		}
		rec, err := runWorkload(def, *seed, opt)
		if err != nil {
			fatalf("%v", err)
		}
		rec.print(os.Stdout)
		line, err := driverLine(rec, opt.timed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(line)
		return
	}

	// Suite mode: every workload, all three passes, one process. Copies
	// of a case that several workloads run must share one digest.
	opt.shared = map[string]string{}
	record := newRunRecord(*seed, opt.seconds, *smoke, *commit)
	failed := 0
	for i := range workloads {
		rec, err := runWorkload(&workloads[i], *seed, opt)
		if err != nil {
			fatalf("%v", err)
		}
		rec.print(os.Stdout)
		failed += rec.Failed
		record.Workloads = append(record.Workloads, rec)
	}
	if *out != "" {
		if err := record.write(*out); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("result written to %s\n", *out)
	}
	if failed > 0 {
		fatalf("%d ops failed", failed)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "amrio-bench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// driverResult is the one-line JSON the BENCHMARK.json driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine shapes a workload record for the driver: every end-to-end
// metric BENCHMARK.json declares when the timed pass ran, every
// per-layer metric otherwise.
func driverLine(rec workloadRecord, endToEndMetrics bool) (string, error) {
	res := driverResult{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]driverMetric{},
	}
	if endToEndMetrics {
		for _, d := range endToEnd {
			if !d.everywhere {
				continue
			}
			m := rec.metric(d.name)
			if m == nil {
				return "", fmt.Errorf("%s: metric %s was not measured", rec.Name, d.name)
			}
			res.Metrics[d.name] = driverMetric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for _, m := range rec.PerLayer {
			res.Metrics[m.Name] = driverMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(res)
	return string(data), err
}
