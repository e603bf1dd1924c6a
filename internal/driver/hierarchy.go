package driver

import (
	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/inputs"
)

// The hierarchy step both engines share. An engine decides only which
// cells to tag and how to fill a new level; the layout of every level —
// level 0 from amr.n_cell and amr.max_grid_size, each finer level from
// tags through clustering, proper nesting and placement — is built here.

// Level0 lays out the coarse level from the config alone: the domain,
// split to max_grid_size with blocking-factor alignment and placed on
// nprocs ranks by dist.
func Level0(cfg inputs.CastroInputs, dist amr.DistStrategy) (grid.Geom, amr.BoxArray, amr.DistributionMapping, error) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(cfg.NCell[0]-1, cfg.NCell[1]-1))
	ba := amr.SingleBoxArray(dom, cfg.MaxGridSize, cfg.BlockingFactor)
	dm, err := amr.Distribute(ba, cfg.NProcs, dist)
	return grid.NewGeom(dom, cfg.ProbLo, cfg.ProbHi), ba, dm, err
}

// FineLevel lays out level l+1 from level l's tags: buffered by
// errorBuf cells and clustered inside level l's domain, clipped to
// nest inside level l's boxes ba (when l > 0), and placed by dist. An
// empty BoxArray, with no mapping, means level l+1 does not exist.
func FineLevel(cfg inputs.CastroInputs, dist amr.DistStrategy, l int, tags *amr.TagSet, errorBuf int, domain grid.Box, ba amr.BoxArray) (amr.BoxArray, amr.DistributionMapping, error) {
	ratio := cfg.RefRatioAt(l)
	fine := amr.MakeFineBoxArray(tags, domain, ratio, cfg.BlockingFactor, cfg.MaxGridSize, cfg.GridEff, errorBuf)
	if l > 0 && fine.Len() > 0 {
		fine = amr.EnforceNesting(fine, ba, ratio)
	}
	if fine.Len() == 0 {
		return fine, amr.DistributionMapping{}, nil
	}
	dm, err := amr.Distribute(fine, cfg.NProcs, dist)
	return fine, dm, err
}
