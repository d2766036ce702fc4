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
// The view's edge delta for each base insertion comes from
// delta.EdgeDeltas — bounded prefix/suffix walks around the new edge —
// rather than a walk entangled with the view's own insertion logic, so
// a chain of k-hop views can share one delta computation (see
// MaintainedCollection).
//
// Frozen-view interaction: with delta-overlay storage (the default),
// mutations routed through the maintainer land in the cached snapshots'
// delta tails — neither the base nor the view pays an O(V+E) refreeze,
// and a mutation the view filters out touches the view's snapshot not
// at all. Compaction folds the tails off the hot path
// (graph.Graph.Compact).
type MaintainedConnector struct {
	def  KHopConnector
	base *graph.Graph
	view *graph.Graph
	// keep lists the vertex types mirrored into the view (nil = all),
	// and remap maps their base vertex IDs to view vertex IDs.
	keep  []string
	remap map[graph.VertexID]graph.VertexID
}

// NewMaintainedConnector materializes the connector over base and
// returns a maintainer. All subsequent mutations must go through the
// maintainer for the view to stay consistent.
func NewMaintainedConnector(def KHopConnector, base *graph.Graph) (*MaintainedConnector, error) {
	if def.DedupPairs {
		return nil, fmt.Errorf("views: incremental maintenance requires path semantics (DedupPairs=false)")
	}
	ct, err := def.contraction(base)
	if err != nil {
		return nil, err
	}
	view, remap, err := ct.build(base, 1)
	if err != nil {
		return nil, err
	}
	return &MaintainedConnector{def: def, base: base, view: view, keep: ct.keep, remap: remap}, nil
}

// View returns the maintained view graph (read-only for callers).
func (m *MaintainedConnector) View() *graph.Graph { return m.view }

// Base returns the underlying base graph.
func (m *MaintainedConnector) Base() *graph.Graph { return m.base }

// AddVertex adds a vertex to the base graph and mirrors it into the view
// when the view keeps its type.
func (m *MaintainedConnector) AddVertex(vtype string, props graph.Properties) (graph.VertexID, error) {
	id, err := m.base.AddVertex(vtype, props)
	if err != nil {
		return graph.NoVertex, err
	}
	if keepsType(m.keep, vtype) {
		vid, err := m.view.AddVertex(vtype, props)
		if err != nil {
			return graph.NoVertex, err
		}
		m.remap[id] = vid
	}
	return id, nil
}

// AddEdge adds an edge to the base graph and inserts the contracted
// edges for every new k-length path that uses it, as computed by
// delta.EdgeDeltas: for each split position i, backward (i)-length
// prefixes into the edge's source are combined with forward
// (k-1-i)-length suffixes out of its target, honoring path
// edge-uniqueness across prefix+edge+suffix.
func (m *MaintainedConnector) AddEdge(from, to graph.VertexID, etype string, props graph.Properties) (graph.EdgeID, error) {
	if allow := edgeTypeFilter(m.def.EdgeTypes); !allow(etype) {
		// The edge can never participate in a contracted path; just add.
		return m.base.AddEdge(from, to, etype, props)
	}
	eid, err := m.base.AddEdge(from, to, etype, props)
	if err != nil {
		return eid, err
	}
	deltas := delta.EdgeDeltas(m.base, eid, delta.Config{
		SrcType:   m.def.SrcType,
		DstType:   m.def.DstType,
		EdgeTypes: m.def.EdgeTypes,
		Ks:        []int{m.def.K},
	})
	return eid, applyDelta(m.view, m.remap, m.def.Name(), deltas[m.def.K])
}

// applyDelta inserts one view's edge delta, translating base endpoint
// IDs through the maintainer's vertex mapping.
func applyDelta(view *graph.Graph, remap map[graph.VertexID]graph.VertexID, name string, des []delta.Edge) error {
	for _, de := range des {
		vf, ok1 := remap[de.From]
		vt, ok2 := remap[de.To]
		if !ok1 || !ok2 {
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
