package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/resilience"
)

func mustAxis(t *testing.T, name, list string) Axis {
	t.Helper()
	ax, err := ParseAxis(name, list)
	if err != nil {
		t.Fatal(err)
	}
	return ax
}

// faultAxis and mitigateAxis are the fault-free/faulted and
// unmitigated/mitigated pairs the fault and mitigation studies sweep.
func faultAxis(name string, plan *faults.Plan) Axis {
	return Axis{Name: "faults", Variants: []Variant{
		{Name: "nofault", Apply: func(c *Case) { c.Faults = nil }},
		{Name: name, Apply: func(c *Case) { c.Faults = plan }},
	}}
}

func mitigateAxis() Axis {
	return Axis{Name: "mitigate", Variants: []Variant{
		{Name: "nomitigate", Apply: func(c *Case) { c.Mitigate = nil }},
		{Name: "mitigate", Apply: func(c *Case) { c.Mitigate = resilience.DefaultPolicy() }},
	}}
}

// crossCase is one expected expansion: Cross(bases, axes...) must name
// its members want, in order, and check must accept each member.
type crossCase struct {
	name  string
	bases []Case
	axes  []Axis
	want  []string
	check func(i int, c Case) bool
}

// runCross runs each expansion as a subtest. The names are the literal
// strings the per-axis nested sweeps produced, base-major with the last
// axis varying fastest.
func runCross(t *testing.T, tests []crossCase) {
	t.Helper()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := Cross(tc.bases, tc.axes...)
			var names []string
			for _, c := range out {
				names = append(names, c.Name)
			}
			if !reflect.DeepEqual(names, tc.want) {
				t.Fatalf("names = %q, want %q", names, tc.want)
			}
			for i, c := range out {
				if !tc.check(i, c) {
					t.Errorf("member %d (%s) has the wrong fields: %+v", i, c.Name, c)
				}
			}
		})
	}
}

// TestCross pins the axis-free expansion: a copy of the bases.
func TestCross(t *testing.T) {
	small := []Case{{Name: "a", NCell: 64, NProcs: 2}, {Name: "b", NCell: 64, NProcs: 2}}
	runCross(t, []crossCase{{
		name:  "no axes",
		bases: small,
		want:  []string{"a", "b"},
		check: func(i int, c Case) bool { return c == small[i] },
	}})
}

// TestSweepDist pins the placement sweep: strategies vary fastest, names
// carry the suffix, and each member keeps its base's shape.
func TestSweepDist(t *testing.T) {
	runCross(t, []crossCase{
		{
			name:  "all",
			bases: []Case{Case4(), Case27()},
			axes:  []Axis{mustAxis(t, "dist", "roundrobin,knapsack,sfc")},
			want: []string{"case4_roundrobin", "case4_knapsack", "case4_sfc",
				"case27_roundrobin", "case27_knapsack", "case27_sfc"},
			check: func(i int, c Case) bool {
				b := []Case{Case4(), Case27()}[i/3]
				return c.Dist == []Dist{DistRoundRobin, DistKnapsack, DistSFC}[i%3] && c.Nodes == b.Nodes && c.NProcs == b.NProcs && c.NCell == b.NCell
			},
		},
		{
			name:  "subset",
			bases: []Case{Case4()},
			axes:  []Axis{mustAxis(t, "dist", "knapsack,sfc")},
			want:  []string{"case4_knapsack", "case4_sfc"},
			check: func(i int, c Case) bool { return c.Dist == []Dist{DistKnapsack, DistSFC}[i] },
		},
	})
}

// TestSweepStorage pins the storage sweep, its "default" naming, and its
// composition with the dist sweep into the full matrix.
func TestSweepStorage(t *testing.T) {
	runCross(t, []crossCase{
		{
			name:  "all",
			bases: []Case{Case4(), Case27()},
			axes:  []Axis{mustAxis(t, "storage", "gpfs,bb,bb+gpfs")},
			want: []string{"case4_gpfs", "case4_bb", "case4_bb+gpfs",
				"case27_gpfs", "case27_bb", "case27_bb+gpfs"},
			check: func(i int, c Case) bool {
				b := []Case{Case4(), Case27()}[i/3]
				return c.Storage == []Storage{StorageGPFS, StorageBB, StorageTiered}[i%3] && c.NCell == b.NCell && c.Nodes == b.Nodes
			},
		},
		{
			name:  "with default",
			bases: []Case{Case4()},
			axes:  []Axis{mustAxis(t, "storage", ",bb")},
			want:  []string{"case4_default", "case4_bb"},
			check: func(i int, c Case) bool { return c.Storage == []Storage{StorageDefault, StorageBB}[i] },
		},
		{
			name:  "dist x storage",
			bases: []Case{Case4()},
			axes:  []Axis{mustAxis(t, "dist", "roundrobin,sfc"), mustAxis(t, "storage", "gpfs,bb")},
			want:  []string{"case4_roundrobin_gpfs", "case4_roundrobin_bb", "case4_sfc_gpfs", "case4_sfc_bb"},
			check: func(i int, c Case) bool {
				return c.Dist == []Dist{DistRoundRobin, DistSFC}[i/2] && c.Storage == []Storage{StorageGPFS, StorageBB}[i%2]
			},
		},
	})
}

// TestSweepFaults pins the fault-free/faulted pair and its composition
// with the storage sweep.
func TestSweepFaults(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{{Kind: faults.KindTargetOutage, Start: 0, End: 5, Target: 0}}}
	small := []Case{{Name: "a", NCell: 64, NProcs: 2}, {Name: "b", NCell: 64, NProcs: 2}}
	runCross(t, []crossCase{
		{
			name:  "pair",
			bases: small,
			axes:  []Axis{faultAxis("faults", plan)},
			want:  []string{"a_nofault", "a_faults", "b_nofault", "b_faults"},
			check: func(i int, c Case) bool { return (c.Faults == nil) == (i%2 == 0) && c.NCell == 64 },
		},
		{
			name:  "storage x faults",
			bases: []Case{{Name: "c"}},
			axes:  []Axis{mustAxis(t, "storage", "bb"), faultAxis("faults", plan)},
			want:  []string{"c_bb_nofault", "c_bb_faults"},
			check: func(i int, c Case) bool { return c.Storage == StorageBB && (c.Faults == nil) == (i == 0) },
		},
	})
}

// TestSweepMitigateNaming pins the unmitigated/mitigated pair and the
// (fault plan x policy) matrix.
func TestSweepMitigateNaming(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{{Kind: faults.KindTargetOutage, Start: 0, End: 5, Target: 0}}}
	small := []Case{{Name: "a", NCell: 64, NProcs: 2}, {Name: "b", NCell: 64, NProcs: 2}}
	runCross(t, []crossCase{
		{
			name:  "pair",
			bases: small,
			axes:  []Axis{mitigateAxis()},
			want:  []string{"a_nomitigate", "a_mitigate", "b_nomitigate", "b_mitigate"},
			check: func(i int, c Case) bool { return (c.Mitigate == nil) == (i%2 == 0) && c.NCell == 64 && c.NProcs == 2 },
		},
		{
			name:  "faults x mitigate",
			bases: small[:1],
			axes: []Axis{{Name: "faults", Variants: []Variant{{Name: "outage", Apply: func(c *Case) { c.Faults = plan }}}},
				mitigateAxis()},
			want:  []string{"a_outage_nomitigate", "a_outage_mitigate"},
			check: func(i int, c Case) bool { return c.Faults == plan && (c.Mitigate == nil) == (i == 0) },
		},
	})
}

// TestSweepAggregation pins the aggregation ladder and its composition
// with the storage sweep; every composed member must validate.
func TestSweepAggregation(t *testing.T) {
	runCross(t, []crossCase{
		{
			name:  "ladder",
			bases: []Case{Case4()},
			axes:  []Axis{mustAxis(t, "aggregation", "direct,2/node,1/node")},
			want:  []string{"case4_direct", "case4_2per-node", "case4_1per-node"},
			check: func(i int, c Case) bool {
				want := []*iosim.AggregationSpec{nil, {Aggregators: "2/node"}, {Aggregators: "1/node"}}[i]
				return reflect.DeepEqual(c.Aggregation, want)
			},
		},
		{
			name:  "storage x aggregation",
			bases: []Case{Case4()},
			axes:  []Axis{mustAxis(t, "storage", "gpfs,bb+gpfs"), mustAxis(t, "aggregation", "direct,1/node")},
			want:  []string{"case4_gpfs_direct", "case4_gpfs_1per-node", "case4_bb+gpfs_direct", "case4_bb+gpfs_1per-node"},
			check: func(i int, c Case) bool {
				return c.Storage == []Storage{StorageGPFS, StorageTiered}[i/2] && (c.Aggregation == nil) == (i%2 == 0) &&
					c.Validate() == nil
			},
		},
	})
}

// TestParseAxis covers the CLI list grammar of the three sweep flags,
// including the named defaults and the rejection paths the
// amrio-campaign flag parser relies on.
func TestParseAxis(t *testing.T) {
	names := func(ax Axis) []string {
		var out []string
		for _, v := range ax.Variants {
			out = append(out, v.Name)
		}
		return out
	}
	dist := mustAxis(t, "dist", "roundrobin, knapsack,sfc,")
	if got := names(dist); !reflect.DeepEqual(got, []string{"roundrobin", "knapsack", "sfc", "default"}) {
		t.Errorf("dist variants = %q", got)
	}
	c := Case{Dist: DistSFC}
	dist.Variants[3].Apply(&c)
	if c.Dist != DistDefault {
		t.Errorf("default dist variant set %q", c.Dist)
	}

	storage := mustAxis(t, "storage", "gpfs,bb,bb+gpfs")
	if got := names(storage); !reflect.DeepEqual(got, []string{"gpfs", "bb", "bb+gpfs"}) {
		t.Errorf("storage variants = %q", got)
	}
	storage.Variants[2].Apply(&c)
	if c.Storage != StorageTiered {
		t.Errorf("bb+gpfs variant set %q", c.Storage)
	}

	agg := mustAxis(t, "aggregation", "direct,all,2/node,1/node+sif+async")
	if got := names(agg); !reflect.DeepEqual(got, []string{"direct", "all", "2per-node", "1per-node-sif-async"}) {
		t.Errorf("aggregation variants = %q", got)
	}
	agg.Variants[3].Apply(&c)
	if c.Aggregation == nil || c.Aggregation.Layout != iosim.LayoutSIF || !c.Aggregation.Async {
		t.Errorf("option variant spec = %+v", c.Aggregation)
	}
	agg.Variants[0].Apply(&c)
	if c.Aggregation != nil {
		t.Errorf("direct variant left spec %+v", c.Aggregation)
	}

	for _, bad := range []struct{ axis, list string }{
		{"dist", "hilbert"}, {"dist", "sfc,zorder"},
		{"storage", "lustre"}, {"storage", "gpfs+bb"},
		{"aggregation", "bogus"}, {"aggregation", "0/node"},
		{"aggregation", "all,-1/node"}, {"aggregation", "1/node+hdf5"},
		{"faults", "nofault"},
	} {
		if ax, err := ParseAxis(bad.axis, bad.list); err == nil {
			t.Errorf("ParseAxis(%q, %q) accepted: %+v", bad.axis, bad.list, ax)
		}
	}
}

// TestGroupsPivot checks Groups against the member names on every grid
// of up to three bases and three axes of up to three variants: each
// member lands in exactly one group per axis, a group's members differ
// only at axis k and list its variants in order, groups come in member
// order, and group g is labelled by member g of the cross-product
// without axis k.
func TestGroupsPivot(t *testing.T) {
	// coords splits a member name "b1_0_2" into its base and variant
	// indices; the test fixture names variants by their index.
	coords := func(name string) []string { return strings.Split(name, "_") }
	var shapes [][]int
	for _, n := range []int{1, 2, 3} {
		shapes = append(shapes, []int{n})
		for _, m := range []int{1, 2, 3} {
			shapes = append(shapes, []int{n, m})
			for _, l := range []int{1, 2, 3} {
				shapes = append(shapes, []int{n, m, l})
			}
		}
	}
	for nBases := 1; nBases <= 3; nBases++ {
		var bases []Case
		for b := 0; b < nBases; b++ {
			bases = append(bases, Case{Name: fmt.Sprintf("b%d", b)})
		}
		for _, shape := range shapes {
			axes := make([]Axis, len(shape))
			for a, n := range shape {
				for v := 0; v < n; v++ {
					axes[a].Variants = append(axes[a].Variants, Variant{Name: fmt.Sprint(v), Apply: func(*Case) {}})
				}
			}
			members := Cross(bases, axes...)
			for k := range axes {
				others := append(append([]Axis{}, axes[:k]...), axes[k+1:]...)
				labels := Cross(bases, others...)
				groups := Groups(nBases, axes, k)
				if len(groups) != len(labels) {
					t.Fatalf("%d bases %v axis %d: %d groups, %d labels", nBases, shape, k, len(groups), len(labels))
				}
				seen := make([]int, len(members))
				for g, group := range groups {
					if len(group) != shape[k] {
						t.Fatalf("%d bases %v axis %d group %d: %d members, want %d", nBases, shape, k, g, len(group), shape[k])
					}
					if g > 0 && group[0] <= groups[g-1][0] {
						t.Errorf("%d bases %v axis %d: groups out of member order", nBases, shape, k)
					}
					for v, m := range group {
						seen[m]++
						c := coords(members[m].Name)
						if c[k+1] != fmt.Sprint(v) {
							t.Errorf("%s at position %d of its axis-%d group", members[m].Name, v, k)
						}
						rest := append(append([]string{}, c[:k+1]...), c[k+2:]...)
						if label := strings.Join(rest, "_"); label != labels[g].Name {
							t.Errorf("%s in group %d labelled %s", members[m].Name, g, labels[g].Name)
						}
					}
				}
				for m, n := range seen {
					if n != 1 {
						t.Errorf("%d bases %v axis %d: member %s in %d groups", nBases, shape, k, members[m].Name, n)
					}
				}
			}
		}
	}
}
