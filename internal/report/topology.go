package report

import (
	"fmt"
	"strings"

	"amrproxyio/internal/iosim"
)

// Per-link renderings for the topology contention model: where a burst's
// bytes landed (compute node, storage target) and how skewed the links
// were — the distribution-mapping-aware view the aggregate bandwidth
// number hides.

// TopologyReport renders per-node and per-target aggregations plus a
// per-burst link-skew table from a run's finished fold. Runs under the
// aggregate model (no Node labels) produce a short explanatory note
// instead.
func TopologyReport(f *iosim.CharacterizeFold) string {
	nodes := f.Nodes()
	if len(nodes) == 0 {
		return "topology report: ledger carries no link labels (aggregate model; " +
			"set iosim.Config.Topology to enable the per-link contention model)\n"
	}

	var sb strings.Builder
	sb.WriteString("Per-link I/O decomposition (topology model)\n")

	var nodeRows [][]string
	for _, n := range SortedIntKeys(nodes) {
		nodeRows = append(nodeRows, []string{
			fmt.Sprintf("%d", n),
			HumanBytes(nodes[n].Bytes),
			fmt.Sprintf("%.4gs", nodes[n].BusySeconds),
		})
	}
	sb.WriteString(Table([]string{"node", "bytes", "busy"}, nodeRows))

	if targetBytes := f.TargetBytes(); len(targetBytes) > 0 {
		// Targets can be numerous (Alpine has 77); summarize the extremes.
		keys := SortedIntKeys(targetBytes)
		var min, max int64 = -1, 0
		var total int64
		for _, k := range keys {
			b := targetBytes[k]
			total += b
			if b > max {
				max = b
			}
			if min < 0 || b < min {
				min = b
			}
		}
		mean := float64(total) / float64(len(keys))
		fmt.Fprintf(&sb, "targets: %d in use, bytes min %s  mean %s  max %s\n",
			len(keys), HumanBytes(min), HumanBytes(int64(mean)), HumanBytes(max))
	}

	var burstRows [][]string
	for _, b := range f.Bursts() {
		if b.Nodes == 0 {
			continue
		}
		burstRows = append(burstRows, []string{
			fmt.Sprintf("%d", b.Step),
			fmt.Sprintf("%d", b.Nodes),
			fmt.Sprintf("%d", b.Links),
			fmt.Sprintf("%.3f", b.LinkSkew),
			fmt.Sprintf("%.3f", b.NodeSkew),
			fmt.Sprintf("%d", b.Stragglers),
		})
	}
	if len(burstRows) > 0 {
		sb.WriteString(Table(
			[]string{"step", "nodes", "links", "link-skew", "node-skew", "stragglers"},
			burstRows))
	}
	return sb.String()
}

// LinkSummary reduces a run's bursts to one line: worst per-burst link
// skew, worst node skew, and total stragglers — the compact per-case
// form amrio-campaign prints for a sweep. Bursts without link labels
// return "aggregate model".
func LinkSummary(bursts []iosim.BurstStat) string {
	var maxLink, maxNode float64
	stragglers := 0
	labeled := false
	for _, b := range bursts {
		if b.Nodes == 0 {
			continue
		}
		labeled = true
		if b.LinkSkew > maxLink {
			maxLink = b.LinkSkew
		}
		if b.NodeSkew > maxNode {
			maxNode = b.NodeSkew
		}
		stragglers += b.Stragglers
	}
	if !labeled {
		return "aggregate model"
	}
	return fmt.Sprintf("link-skew %.3f  node-skew %.3f  stragglers %d",
		maxLink, maxNode, stragglers)
}
