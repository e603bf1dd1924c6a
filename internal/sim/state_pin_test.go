package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// State pin: the hydro engine's full conserved state, every FAB of every
// level with its ghosts, plus each step's dt, hashed bit for bit after
// every Advance and Regrid against digests recorded before the sweep
// kernel's rewrite. It covers what the plotfile-size pins cannot: the
// field values themselves, through refluxing, regrids and level changes.
func TestHydroStatePinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxLevel  int
		regridInt int
		steps     int
		reflux    bool
		want      string
	}{
		{"l0", 0, 2, 40, true, "1c43c35a30cbbf3e77241344dc6d1c1d34487978e75ccbdca99e8db1d39e094a"},
		{"l2-regrid", 2, 2, 40, true, "45dcff5627e9629218823aca4babc1c674eae1b5d218e13197dbc606bfa5b8e3"},
		// A frozen hierarchy (TestRefluxRestoresConservation's setup)
		// run long enough for flux to cross the coarse-fine boundary, so
		// the captured fluxes move the state through the correction: the
		// two digests differ.
		{"l2-frozen-reflux", 2, 0, 50, true, "b03830de6e421a1a085083c38086dd4cf8b1f475025b2d75373823f89676a742"},
		{"l2-frozen-no-reflux", 2, 0, 50, false, "8f2bb19d89d7510f700192f4326ae30fbd2f4c8337dfce78ca776b5b51a14ddb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.MaxLevel = tc.maxLevel
			cfg.RegridInt = tc.regridInt
			cfg.MaxStep = tc.steps
			opts := DefaultOptions()
			opts.Reflux = tc.reflux
			s, err := New(cfg, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var b [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			for s.Step < cfg.MaxStep {
				s.Advance()
				if cfg.RegridInt > 0 && s.Step%cfg.RegridInt == 0 {
					if err := s.Regrid(); err != nil {
						t.Fatal(err)
					}
				}
				put(s.LastDt)
				for _, lev := range s.Levels {
					for _, f := range lev.State.FABs {
						for _, v := range f.Data {
							put(v)
						}
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
