package campaign

import "fmt"

// The paper's named pivot cases.

// Case4 is the paper's pivot: 512x512 L0 on 2 Summit nodes / 32 tasks,
// 20 plot outputs. Figs. 6, 7, 9 and 10 are built from this case and its
// cfl/max_level variants.
func Case4() Case {
	return Case{
		Name: "case4", NCell: 512, MaxLevel: 4, MaxStep: 400, PlotInt: 20,
		CFL: 0.4, NProcs: 32, Nodes: 2, Engine: EngineAuto,
	}
}

// Case4Variant returns the Fig. 10 pivot matrix member for a CFL number
// and max_level.
func Case4Variant(cfl float64, maxLevel int) Case {
	c := Case4()
	c.Name = fmt.Sprintf("case4_cfl%d_maxl%d", int(cfl*10), maxLevel)
	c.CFL = cfl
	c.MaxLevel = maxLevel
	return c
}

// Case27 is the paper's per-task study: 1024x1024 L0 on 64 ranks with 4
// mesh levels and 5 output steps (Fig. 8).
func Case27() Case {
	return Case{
		Name: "case27", NCell: 1024, MaxLevel: 3, MaxStep: 5, PlotInt: 1,
		CFL: 0.5, NProcs: 64, Nodes: 4, Engine: EngineAuto,
	}
}

// LargeCase is the paper's Fig. 11 large run: 8192x8192 L0 on 64 Summit
// nodes, producing ~50 output steps. The step budget runs past the
// init_shrink spin-up so the front actually moves and the refined levels
// produce the small, discrete regrid jumps Fig. 11 shows on top of an
// L0-dominated, nearly-flat series.
func LargeCase() Case {
	return Case{
		Name: "case_large_8192", NCell: 8192, MaxLevel: 2, MaxStep: 200, PlotInt: 4,
		CFL: 0.5, NProcs: 1024, Nodes: 64, Engine: EngineSurrogate,
	}
}

// PaperCampaign returns the 47-run Table III matrix. Sizes, step counts,
// plot intervals, CFL numbers, level counts, and rank counts all stay
// inside the published ranges (n_cell 32²..131072², max_step 40..1000,
// plot_int 1..20, cfl 0.3..0.6, max_level 2..4, nprocs 1..1024, nodes
// 1..512).
func PaperCampaign() []Case {
	var cases []Case
	add := func(c Case) {
		c.Name = fmt.Sprintf("case%d", len(cases)+1)
		cases = append(cases, c)
	}

	// Small meshes: many steps, frequent plots, few ranks (cases 1-12).
	for _, n := range []int{32, 64} {
		for _, cfl := range []float64{0.3, 0.5, 0.6} {
			for _, ml := range []int{2, 3} {
				add(Case{NCell: n, MaxLevel: ml, MaxStep: 1000, PlotInt: 20,
					CFL: cfl, NProcs: max(1, n/32), Nodes: 1, Engine: EngineAuto})
			}
		}
	}
	// Mid meshes 128-512 (cases 13-30).
	for _, n := range []int{128, 256, 512} {
		for _, cfl := range []float64{0.3, 0.4, 0.6} {
			for _, ml := range []int{2, 4} {
				add(Case{NCell: n, MaxLevel: ml, MaxStep: 400, PlotInt: 20,
					CFL: cfl, NProcs: n / 16, Nodes: max(1, n/256), Engine: EngineAuto})
			}
		}
	}
	// Large meshes (cases 31-42): fewer steps, more ranks.
	for _, n := range []int{1024, 2048, 4096, 8192} {
		for _, cfl := range []float64{0.4, 0.5} {
			add(Case{NCell: n, MaxLevel: 3, MaxStep: 100, PlotInt: 10,
				CFL: cfl, NProcs: min(1024, n/16), Nodes: min(512, n/64), Engine: EngineAuto})
		}
		add(Case{NCell: n, MaxLevel: 2, MaxStep: 40, PlotInt: 1,
			CFL: 0.5, NProcs: min(1024, n/16), Nodes: min(512, n/64), Engine: EngineAuto})
	}
	// Summit-scale (cases 43-47): the paper's largest configurations.
	add(Case{NCell: 16384, MaxLevel: 2, MaxStep: 40, PlotInt: 5,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: EngineSurrogate})
	add(Case{NCell: 32768, MaxLevel: 2, MaxStep: 40, PlotInt: 5,
		CFL: 0.5, NProcs: 1024, Nodes: 256, Engine: EngineSurrogate})
	add(Case{NCell: 65536, MaxLevel: 2, MaxStep: 40, PlotInt: 10,
		CFL: 0.5, NProcs: 1024, Nodes: 512, Engine: EngineSurrogate})
	add(Case{NCell: 131072, MaxLevel: 2, MaxStep: 40, PlotInt: 20,
		CFL: 0.5, NProcs: 1024, Nodes: 512, Engine: EngineSurrogate})
	add(Case{NCell: 131072, MaxLevel: 2, MaxStep: 40, PlotInt: 10,
		CFL: 0.3, NProcs: 1024, Nodes: 512, Engine: EngineSurrogate})
	return cases
}

// QuickCampaign returns the campaign scaled for fast execution (used by
// tests and default bench runs); the paper-scale campaign remains
// available through PaperCampaign.
func QuickCampaign() []Case {
	full := PaperCampaign()
	out := make([]Case, 0, len(full))
	for _, c := range full {
		q := c.Scaled(8)
		// Keep summit-scale cases on the surrogate but shrink their box
		// bookkeeping cost.
		if q.NCell > 4096 {
			q.NCell = 4096
		}
		out = append(out, q)
	}
	return out
}
