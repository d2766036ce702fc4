package views

import (
	"fmt"
	"slices"

	"kaskade/internal/delta"
	"kaskade/internal/graph"
)

// MaintainedConnector keeps a materialized k-hop connector view
// incrementally consistent with its base graph as vertices and edges are
// added. This implements the maintenance side of graph views that the
// paper inherits from Zhuge & Garcia-Molina [23] and lists as part of
// making views practical: rematerializing on every base update would
// erase the amortization views exist to provide.
//
// The graphs in this engine are append-only, so maintenance handles
// insertions (the dominant case for provenance/lineage graphs, which
// only grow); deletions would require tombstoning and are out of scope,
// as in the paper's prototype.
//
// A MaintainedConnector is the MaintainedCollection of its one hop
// count K: the view's edge delta for each base insertion comes from
// delta.EdgeDeltas — bounded prefix/suffix walks around the new edge —
// rather than a walk entangled with the view's own insertion logic, the
// computation a chain of k-hop views shares.
//
// Frozen-view interaction: with delta-overlay storage (the default),
// mutations routed through the maintainer land in the cached snapshots'
// delta tails — neither the base nor the view pays an O(V+E) refreeze,
// and a mutation the view filters out touches the view's snapshot not
// at all. Compaction folds the tails off the hot path
// (graph.Graph.Compact).
//
// AddVertex, AddEdge and Base are the collection's: all subsequent
// mutations must go through the maintainer for the view to stay
// consistent.
type MaintainedConnector struct{ *MaintainedCollection }

// NewMaintainedConnector materializes the connector over base and
// returns a maintainer.
func NewMaintainedConnector(def KHopConnector, base *graph.Graph) (*MaintainedConnector, error) {
	c, err := newCollection(def, base, []int{def.K})
	if err != nil {
		return nil, err
	}
	return &MaintainedConnector{c}, nil
}

// View returns the maintained view graph (read-only for callers).
func (m *MaintainedConnector) View() *graph.Graph { return m.views[0] }

// applyDelta inserts one view's edge delta, translating base endpoint
// IDs through the maintainer's vertex mapping.
func applyDelta(view *graph.Graph, remap []graph.VertexID, name string, des []delta.Edge) error {
	mirror := func(v graph.VertexID) graph.VertexID {
		if int(v) < len(remap) {
			return remap[v]
		}
		return graph.NoVertex
	}
	for _, de := range des {
		vf, vt := mirror(de.From), mirror(de.To)
		if vf == graph.NoVertex || vt == graph.NoVertex {
			return fmt.Errorf("views: maintenance: endpoint not mirrored into view")
		}
		if _, err := view.AddEdge(vf, vt, name, graph.Properties{
			"ts": de.TS, "hops": int64(de.K),
		}); err != nil {
			return err
		}
	}
	return nil
}

// keepsType reports whether a vertex of type t belongs in a view that
// keeps the given vertex types (nil = all).
func keepsType(keep []string, t string) bool {
	return keep == nil || slices.Contains(keep, t)
}
