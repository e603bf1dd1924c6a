package campaign

import (
	"fmt"
	"strings"

	"amrproxyio/internal/iosim"
)

// Sweeps: the paper's method is a parameter campaign, and every
// output-side knob (placement, storage tier, aggregation, fault plan,
// mitigation policy) is swept the same way — an Axis of named Variants,
// expanded against a base case list by Cross and pivoted back into
// per-axis comparisons by Groups.

// Variant is one value of a swept axis. Name suffixes the member's case
// name; Apply sets the Case fields the value selects.
type Variant struct {
	Name  string
	Apply func(*Case)
}

// Axis is one swept parameter: its variants, in sweep order.
type Axis struct {
	Name     string
	Variants []Variant
}

// Cross expands bases into their cross-product with axes. Members come
// base-major with the last axis varying fastest; each is named
// "<base>_<v1>_<v2>…" and has its variants applied in axis order. With
// no axes it returns a copy of bases.
func Cross(bases []Case, axes ...Axis) []Case {
	out := append([]Case(nil), bases...)
	for _, ax := range axes {
		next := make([]Case, 0, len(out)*len(ax.Variants))
		for _, c := range out {
			for _, v := range ax.Variants {
				m := c
				m.Name = c.Name + "_" + v.Name
				v.Apply(&m)
				next = append(next, m)
			}
		}
		out = next
	}
	return out
}

// Groups pivots Cross(bases, axes...) along axes[k]: for nBases bases it
// returns the member indices that differ only in their axes[k] variant,
// one group per combination of base and other axes' variants, each
// listing axes[k]'s variants in order. Groups come in member order, so
// group g is labelled by member g of Cross(bases, axes without k).
func Groups(nBases int, axes []Axis, k int) [][]int {
	outer, inner := nBases, 1
	for _, ax := range axes[:k] {
		outer *= len(ax.Variants)
	}
	for _, ax := range axes[k+1:] {
		inner *= len(ax.Variants)
	}
	n := len(axes[k].Variants)
	groups := make([][]int, 0, outer*inner)
	for o := 0; o < outer; o++ {
		for j := 0; j < inner; j++ {
			g := make([]int, n)
			for v := range g {
				g[v] = (o*n+v)*inner + j
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// ParseAxis parses a comma-separated CLI list into the named axis:
// "dist" (ParseDist names), "storage" (ParseStorage names), or
// "aggregation" (iosim.ParseAggregation specs, each named by its Token).
// An empty dist or storage element selects the default and is named
// "default"; an empty or "direct" aggregation element is the
// no-aggregation baseline, named "direct". Unknown names are rejected
// before any case runs.
func ParseAxis(name, list string) (Axis, error) {
	ax := Axis{Name: name}
	for _, item := range strings.Split(list, ",") {
		v, err := parseVariant(name, strings.TrimSpace(item))
		if err != nil {
			return Axis{}, err
		}
		ax.Variants = append(ax.Variants, v)
	}
	return ax, nil
}

func parseVariant(axis, item string) (Variant, error) {
	orDefault := func(s string) string {
		if s == "" {
			return "default"
		}
		return s
	}
	switch axis {
	case "dist":
		d, err := ParseDist(item)
		if err != nil {
			return Variant{}, err
		}
		return Variant{Name: orDefault(string(d)), Apply: func(c *Case) { c.Dist = d }}, nil
	case "storage":
		s, err := ParseStorage(item)
		if err != nil {
			return Variant{}, err
		}
		return Variant{Name: orDefault(string(s)), Apply: func(c *Case) { c.Storage = s }}, nil
	case "aggregation":
		if item == "" || item == "direct" {
			return Variant{Name: "direct", Apply: func(c *Case) { c.Aggregation = nil }}, nil
		}
		spec, err := iosim.ParseAggregation(item)
		if err != nil {
			return Variant{}, fmt.Errorf("campaign: %w", err)
		}
		return Variant{Name: spec.Token(), Apply: func(c *Case) { c.Aggregation = &spec }}, nil
	}
	return Variant{}, fmt.Errorf("campaign: unknown sweep axis %q (valid: dist, storage, aggregation)", axis)
}
