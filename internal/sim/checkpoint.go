package sim

import (
	"fmt"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/driver"
	"amrproxyio/internal/hydro"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
)

// Checkpoint-restart integration: the driver writes checkpoints of the
// conserved state (same N-to-N pattern as plotfiles) when the adaptive
// mitigation cadence calls for one, and a run can resume exactly from
// any checkpoint.

// CheckpointSpec assembles the conserved state into a checkpoint spec.
func (s *Sim) CheckpointSpec() plotfile.CheckpointSpec {
	spec := plotfile.CheckpointSpec{
		Root:   dumpRoot(s.Cfg.CheckFile, s.Step),
		Time:   s.Time,
		Step:   s.Step,
		LastDt: s.LastDt,
		NComp:  hydro.NCons,
		NProcs: s.Cfg.NProcs,
	}
	for l, lev := range s.Levels {
		spec.Levels = append(spec.Levels, plotfile.LevelSpec{
			Geom:     lev.Geom,
			BA:       lev.BA,
			DM:       lev.DM,
			RefRatio: s.Cfg.RefRatioAt(l),
			State:    func() *amr.MultiFab { return lev.State },
		})
	}
	return spec
}

// Restore builds a Sim from a checkpoint directory previously written
// through a RealDisk filesystem. The configuration must match the original
// run (it supplies everything the checkpoint does not carry, e.g. CFL and
// regrid cadence).
func Restore(dir string, cfg inputs.CastroInputs, opts Options, fs *iosim.FileSystem) (*Sim, error) {
	rs, err := plotfile.ReadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if rs.NComp != hydro.NCons {
		return nil, fmt.Errorf("sim: checkpoint has %d components, want %d", rs.NComp, hydro.NCons)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{Cfg: cfg, Opts: opts, Step: rs.Step, Time: rs.Time, LastDt: rs.LastDt}
	s.Driver = driver.New(s, cfg, opts.Options, fs)
	for _, lev := range rs.Levels {
		state := plotfile.FillMultiFabFromRestart(lev, hydro.NCons, nGhost)
		s.Levels = append(s.Levels, &Level{
			Geom: lev.Geom,
			// The restart reader assembles Boxes directly; re-wrap so the
			// level carries a cached spatial index like a live hierarchy.
			BA:    amr.NewBoxArray(lev.BA.Boxes),
			DM:    lev.DM,
			State: state,
		})
	}
	if len(s.Levels) == 0 {
		return nil, fmt.Errorf("sim: checkpoint has no levels")
	}
	s.fillPatchAll()
	return s, nil
}

// StateDigest summarizes the conserved state for exact comparison in
// restart tests: per-level (sum, min, max) of each component.
func (s *Sim) StateDigest() [][]float64 {
	var out [][]float64
	for _, lev := range s.Levels {
		row := make([]float64, 0, hydro.NCons*3)
		for c := 0; c < hydro.NCons; c++ {
			row = append(row, lev.State.Sum(c), lev.State.Min(c), lev.State.Max(c))
		}
		out = append(out, row)
	}
	return out
}
