package core

import (
	"fmt"
	"strings"

	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/stats"
)

// Replay is the paper's loop (its Fig. 1) closed for one measured run:
// the run translated into a MACSio command line (Listing 1), that line
// parsed back and run, and the bytes each dump wrote compared with the
// bytes each plot event wrote (the Fig. 10 procedure).
type Replay struct {
	// Translation is the Listing-1 mapping; its MAPE and Pearson rate
	// the calibrated kernel, not the proxy run.
	Translation Translation
	// Command is the MACSio command line the replay ran. The config is
	// parsed back from it, so what was checked is what was printed,
	// dataset_growth rounded to six decimals included.
	Command  string
	Measured []int64 // bytes per plot event, in step order
	Proxy    []int64 // bytes per MACSio dump, in dump order
	// Proxy fidelity, step by step, of Proxy against Measured.
	MAPE    float64
	Pearson float64
}

// ReplayRun translates a measured run with DefaultTranslateOptions, runs
// the resulting MACSio command line on a model-only filesystem and
// compares the proxy's per-dump bytes with the run's per-plot bytes.
func ReplayRun(cfg inputs.CastroInputs, measured []plotfile.OutputRecord) (Replay, error) {
	tr, err := Translate(cfg, measured, DefaultTranslateOptions())
	if err != nil {
		return Replay{}, err
	}
	rp := Replay{Translation: tr, Command: tr.MACSio.CommandLine()}
	mcfg, err := macsio.ParseArgs(strings.Fields(rp.Command)[1:])
	if err != nil {
		return Replay{}, err
	}
	fsCfg := iosim.DefaultConfig()
	fsCfg.RetainLedger = iosim.RetainNone
	recs, err := macsio.Run(iosim.New(fsCfg, ""), mcfg)
	if err != nil {
		return Replay{}, err
	}
	_, rp.Measured = PerStepBytes(measured)
	perDump := macsio.BytesPerStep(recs)
	if len(perDump) != len(rp.Measured) {
		return Replay{}, fmt.Errorf("core: %d MACSio dumps replay %d plot events", len(perDump), len(rp.Measured))
	}
	meas := make([]float64, len(rp.Measured))
	prox := make([]float64, len(rp.Measured))
	rp.Proxy = make([]int64, len(rp.Measured))
	for k, b := range rp.Measured {
		rp.Proxy[k] = perDump[k]
		meas[k], prox[k] = float64(b), float64(perDump[k])
	}
	rp.MAPE, rp.Pearson = stats.MAPE(meas, prox), stats.Pearson(meas, prox)
	return rp, nil
}
