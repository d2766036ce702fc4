package views

import (
	"fmt"
	"slices"

	"kaskade/internal/delta"
	"kaskade/internal/graph"
)

// MaintainedCollection maintains k-hop connector views that share
// endpoint types and edge filter, one per hop count, as one collection:
// each base insertion needs only one delta computation, because the
// bounded prefix/suffix frontier that delta.EdgeDeltas walks once
// serves every k. This is the collections-of-related-views shape that
// Graphsurge (PAPERS.md) exploits — maintain the family, not each
// member. NewMaintainedCollection keeps k=1..K; a MaintainedConnector is
// the collection of its one K.
type MaintainedCollection struct {
	template KHopConnector // K is the collection's MaxK
	base     *graph.Graph
	views    []*graph.Graph // views[i] is the ks[i]-hop view
	ks       []int
	// keep lists the vertex types mirrored into the views (nil = all),
	// and remap maps their base vertex IDs to view vertex IDs (NoVertex,
	// or past its end: not mirrored). Every view in the chain keeps the
	// same types, so one mapping serves all.
	keep  []string
	remap []graph.VertexID
}

// NewMaintainedCollection materializes the k-hop connectors k=1..def.K
// over base and returns their shared maintainer. Like the single-view
// maintainer, it requires path semantics, and all subsequent mutations
// must go through the collection.
func NewMaintainedCollection(def KHopConnector, base *graph.Graph) (*MaintainedCollection, error) {
	if def.K < 1 {
		return nil, fmt.Errorf("views: collection needs K >= 1, got %d", def.K)
	}
	ks := make([]int, def.K)
	for i := range ks {
		ks[i] = i + 1
	}
	return newCollection(def, base, ks)
}

// newCollection materializes def's connector at each hop count in ks
// over base. Maintenance requires path semantics.
func newCollection(def KHopConnector, base *graph.Graph, ks []int) (*MaintainedCollection, error) {
	if def.DedupPairs {
		return nil, fmt.Errorf("views: incremental maintenance requires path semantics (DedupPairs=false)")
	}
	c := &MaintainedCollection{template: def, base: base, ks: ks}
	for _, k := range ks {
		dk := def
		dk.K = k
		ct, err := dk.contraction(base)
		if err != nil {
			return nil, err
		}
		view, remap, err := ct.build(base, 1)
		if err != nil {
			return nil, err
		}
		c.views = append(c.views, view)
		c.keep, c.remap = ct.keep, remap
	}
	return c, nil
}

// View returns the maintained k-hop view (read-only for callers).
func (c *MaintainedCollection) View(k int) *graph.Graph { return c.views[slices.Index(c.ks, k)] }

// MaxK returns the largest hop count in the chain.
func (c *MaintainedCollection) MaxK() int { return c.template.K }

// Base returns the underlying base graph.
func (c *MaintainedCollection) Base() *graph.Graph { return c.base }

// name returns the k-hop member's view name (CONN_kHOP_...).
func (c *MaintainedCollection) name(k int) string {
	dk := c.template
	dk.K = k
	return dk.Name()
}

// AddVertex adds a vertex to the base graph and mirrors it into every
// view in the chain when the chain keeps its type.
func (c *MaintainedCollection) AddVertex(vtype string, props graph.Properties) (graph.VertexID, error) {
	id, err := c.base.AddVertex(vtype, props)
	if err != nil {
		return graph.NoVertex, err
	}
	if keepsType(c.keep, vtype) {
		for len(c.remap) <= int(id) {
			c.remap = append(c.remap, graph.NoVertex)
		}
		for _, view := range c.views {
			vid, err := view.AddVertex(vtype, props)
			if err != nil {
				return graph.NoVertex, err
			}
			c.remap[id] = vid // identical vid across the chain
		}
	}
	return id, nil
}

// AddEdge adds an edge to the base graph and applies each view's edge
// delta, all computed from one shared prefix/suffix frontier walk.
func (c *MaintainedCollection) AddEdge(from, to graph.VertexID, etype string, props graph.Properties) (graph.EdgeID, error) {
	if allow := edgeTypeFilter(c.template.EdgeTypes); !allow(etype) {
		// The edge can never participate in any view of the chain.
		return c.base.AddEdge(from, to, etype, props)
	}
	eid, err := c.base.AddEdge(from, to, etype, props)
	if err != nil {
		return eid, err
	}
	deltas := delta.EdgeDeltas(c.base, eid, delta.Config{
		SrcType:   c.template.SrcType,
		DstType:   c.template.DstType,
		EdgeTypes: c.template.EdgeTypes,
		Ks:        c.ks,
	})
	for i, k := range c.ks {
		if err := applyDelta(c.views[i], c.remap, c.name(k), deltas[k]); err != nil {
			return eid, err
		}
	}
	return eid, nil
}
