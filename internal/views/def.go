package views

import (
	"fmt"
	"sort"
	"strings"

	"kaskade/internal/gql"
)

// ViewDef is a named, declaratively defined view: the catalog name the
// DDL introduced, the canonical CREATE VIEW statement text, and the
// compiled View. It is what CREATE VIEW produces and what the catalog's
// named-view registry stores; the struct constructors bridge into the
// same surface through Define.
type ViewDef struct {
	// Name is the catalog name (the DDL name; the view's structural
	// Name() for struct-built views wrapped by Define).
	Name string
	// DDL is the canonical CREATE MATERIALIZED VIEW statement text, or
	// "" when the view carries options outside the DDL surface
	// (multi-edge-type k-hop filters, DedupPairs).
	DDL string
	// View is the compiled view.
	View View
}

// Define wraps a struct-built view in a ViewDef named after the view's
// structural name, deriving the canonical DDL text where one exists —
// the bridge that lets struct-API views (MaterializeView,
// AdoptSelection) appear in SHOW VIEWS alongside DDL-created ones.
func Define(v View) ViewDef {
	d := ViewDef{Name: v.Name(), View: v}
	if pat, err := CanonicalPattern(v); err == nil {
		d.DDL = "CREATE MATERIALIZED VIEW " + d.Name + " AS " + pat
	}
	return d
}

// Compile parses src as a defining pattern and compiles it to the view
// class it denotes (CompilePattern).
func Compile(src string) (View, error) {
	q, err := gql.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompilePattern(q)
}

// MustCompile is Compile that panics on error, for statically known
// view definitions.
func MustCompile(src string) View {
	v, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return v
}

// errInventory builds the error for patterns outside the Table I/II
// inventory, naming what was seen and pointing at the recognized shapes.
func errInventory(saw string) error {
	return fmt.Errorf("views: %s is outside the Table I/II view inventory; "+
		"recognized defining patterns: (x)-[*k..k]->(y) k-hop connector, "+
		"(x)-[:E*1..n]->(y) same-edge-type, "+
		"(x)-[*1..n]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 source-to-sink, "+
		"(v) WHERE [NOT] LABEL(v) = 'T' OR ... vertex in-/exclusion, "+
		"(x)-[e]->(y) WHERE [NOT] TYPE(e) = 'E' OR ... edge in-/exclusion, "+
		"(v:T) RETURN v.g, COUNT(v) vertex aggregator, "+
		"(x)-[e]->(y) RETURN x, y, COUNT(e) edge aggregator, "+
		"(v:T)-[e]->(w:T) WHERE v.g = w.g RETURN v.g, COUNT(v) subgraph aggregator", saw)
}

// CompilePattern recognizes which Table I/II view class the defining
// pattern of a CREATE VIEW statement denotes — k-hop, same-edge-type, or
// source-to-sink connector; inclusion/removal or aggregator summarizer —
// and returns the equivalent View. Patterns outside the inventory return
// a descriptive error, and so does (x:T)-[*1..n]->(y:T): the
// same-vertex-type connector is not that pattern (errSameVertexType). The inverse is
// CanonicalPattern: compiling a canonical pattern yields an equal view.
func CompilePattern(q gql.Query) (View, error) {
	m, ok := q.(*gql.MatchQuery)
	if !ok {
		return nil, errInventory("a SELECT block (views are defined by a bare MATCH pattern)")
	}
	if len(m.Patterns) != 1 {
		return nil, errInventory(fmt.Sprintf("a %d-pattern MATCH", len(m.Patterns)))
	}
	p := m.Patterns[0]
	switch {
	case len(p.Nodes) == 1:
		return compileVertexSummarizer(m, p)
	case len(p.Nodes) == 2:
		if p.Edges[0].Reversed {
			return nil, errInventory("a reversed edge pattern")
		}
		if p.Edges[0].VarLength {
			return compileConnector(m, p)
		}
		return compileEdgeShape(m, p)
	}
	return nil, errInventory(fmt.Sprintf("a %d-node path", len(p.Nodes)))
}

// compileConnector classifies the variable-length two-node shapes of
// Table I.
func compileConnector(m *gql.MatchQuery, p gql.PathPattern) (View, error) {
	x, y, e := p.Nodes[0], p.Nodes[1], p.Edges[0]
	if err := wantReturnVars(m.Return, x.Var, y.Var); err != nil {
		return nil, err
	}
	if e.MaxHops < 0 {
		return nil, fmt.Errorf("views: connector patterns need a bounded hop range, got *%d..", e.MinHops)
	}
	// Source-to-sink: the endpoint degree predicate is the class marker.
	if m.Where != nil {
		if err := wantSourceSinkWhere(m.Where, x.Var, y.Var); err != nil {
			return nil, err
		}
		if x.Type != "" || y.Type != "" || e.Type != "" {
			return nil, errInventory("a typed source-to-sink pattern")
		}
		if e.MinHops != 1 {
			return nil, fmt.Errorf("views: source-to-sink connector paths start at 1 hop, got *%d..%d", e.MinHops, e.MaxHops)
		}
		return SourceToSinkConnector{MaxLen: e.MaxHops}, nil
	}
	if e.MinHops == e.MaxHops {
		if e.MinHops < 1 {
			return nil, fmt.Errorf("views: k-hop connector needs k >= 1, got *%d..%d", e.MinHops, e.MaxHops)
		}
		c := KHopConnector{SrcType: x.Type, DstType: y.Type, K: e.MinHops}
		if e.Type != "" {
			c.EdgeTypes = []string{e.Type}
		}
		return c, nil
	}
	if e.MinHops == 1 {
		switch {
		case x.Type != "" && x.Type == y.Type && e.Type == "":
			return nil, errSameVertexType(x.Type, e.MaxHops)
		case x.Type == "" && y.Type == "" && e.Type != "":
			return SameEdgeTypeConnector{EType: e.Type, MaxLen: e.MaxHops}, nil
		}
	}
	return nil, errInventory(fmt.Sprintf("a *%d..%d path between (%s) and (%s)",
		e.MinHops, e.MaxHops, orAny(x.Type), orAny(y.Type)))
}

// compileVertexSummarizer classifies the single-node shapes of Table II:
// label filters (inclusion/removal) and the vertex aggregator.
func compileVertexSummarizer(m *gql.MatchQuery, p gql.PathPattern) (View, error) {
	v := p.Nodes[0]
	if v.Var == "" {
		return nil, errInventory("an anonymous vertex pattern")
	}
	if m.Where != nil {
		// Label filter: MATCH (v) WHERE [NOT] LABEL(v)='A' OR ... RETURN v.
		if v.Type != "" {
			return nil, errInventory("a typed vertex pattern with a WHERE filter")
		}
		if err := wantReturnVars(m.Return, v.Var); err != nil {
			return nil, err
		}
		if inner, ok := notOperand(m.Where); ok {
			types, err := labelDisjunction(inner, "LABEL", v.Var)
			if err != nil {
				return nil, err
			}
			return VertexRemovalSummarizer{Types: types}, nil
		}
		types, err := labelDisjunction(m.Where, "LABEL", v.Var)
		if err != nil {
			return nil, err
		}
		return VertexInclusionSummarizer{Types: types}, nil
	}
	// Vertex aggregator: MATCH (v:T) RETURN v.g, COUNT(v)[, AGG(v.p)...].
	if v.Type == "" {
		return nil, errInventory("an untyped vertex pattern without a WHERE filter")
	}
	group, aggs, err := aggregatorReturn(m.Return, v.Var)
	if err != nil {
		return nil, err
	}
	return VertexAggregatorSummarizer{VType: v.Type, GroupBy: group, Aggs: aggs}, nil
}

// compileEdgeShape classifies the plain-edge two-node shapes of Table
// II: edge type filters, the edge aggregator, and the subgraph
// aggregator.
func compileEdgeShape(m *gql.MatchQuery, p gql.PathPattern) (View, error) {
	x, y, e := p.Nodes[0], p.Nodes[1], p.Edges[0]
	if e.Var == "" {
		return nil, errInventory("an anonymous edge pattern (summarizer shapes bind the edge, e.g. -[e]->)")
	}
	if m.Where != nil {
		// Subgraph aggregator: (v:T)-[e]->(w:T) WHERE v.g = w.g
		// RETURN v.g, COUNT(v)[, AGG(v.p)...].
		if group, ok := groupEquality(m.Where, x.Var, y.Var); ok {
			if x.Type == "" || x.Type != y.Type {
				return nil, errInventory("a subgraph-aggregator pattern whose endpoints are not one vertex type")
			}
			g2, aggs, err := aggregatorReturn(m.Return, x.Var)
			if err != nil {
				return nil, err
			}
			if g2 != group {
				return nil, fmt.Errorf("views: subgraph aggregator groups by %s.%s but returns %s.%s", x.Var, group, x.Var, g2)
			}
			return SubgraphAggregatorSummarizer{VType: x.Type, GroupBy: group, Aggs: aggs}, nil
		}
		// Edge type filter: (x)-[e]->(y) WHERE [NOT] TYPE(e)='E' OR ...
		// RETURN x, e, y.
		if x.Type != "" || y.Type != "" || e.Type != "" {
			return nil, errInventory("a typed pattern with an edge WHERE filter")
		}
		if err := wantReturnVars(m.Return, x.Var, e.Var, y.Var); err != nil {
			return nil, err
		}
		if inner, ok := notOperand(m.Where); ok {
			types, err := labelDisjunction(inner, "TYPE", e.Var)
			if err != nil {
				return nil, err
			}
			return EdgeRemovalSummarizer{Types: types}, nil
		}
		types, err := labelDisjunction(m.Where, "TYPE", e.Var)
		if err != nil {
			return nil, err
		}
		return EdgeInclusionSummarizer{Types: types}, nil
	}
	// Edge aggregator: (x)-[e[:E]]->(y) RETURN x, y, COUNT(e)[, AGG(e.p)...].
	if x.Type != "" || y.Type != "" {
		return nil, errInventory("an edge-aggregator pattern with typed endpoints")
	}
	if len(m.Return) < 3 {
		return nil, errInventory("a plain-edge pattern without a filter or aggregation")
	}
	if err := wantReturnVars(m.Return[:2], x.Var, y.Var); err != nil {
		return nil, err
	}
	if err := wantCount(m.Return[2].Expr, e.Var); err != nil {
		return nil, err
	}
	aggs, err := aggItems(m.Return[3:], e.Var)
	if err != nil {
		return nil, err
	}
	return EdgeAggregatorSummarizer{EType: e.Type, Aggs: aggs}, nil
}

// --- shape helpers ---

// wantReturnVars checks the RETURN items are exactly the given
// variables, in order, unaliased.
func wantReturnVars(items []gql.ReturnItem, vars ...string) error {
	if len(items) != len(vars) {
		return fmt.Errorf("views: view pattern must RETURN exactly %s, got %d items", strings.Join(vars, ", "), len(items))
	}
	for i, want := range vars {
		if want == "" {
			return errInventory("an anonymous vertex in the defining pattern")
		}
		id, ok := items[i].Expr.(*gql.Ident)
		if !ok || id.Name != want || items[i].Alias != "" {
			return fmt.Errorf("views: view pattern must RETURN exactly %s, got %s", strings.Join(vars, ", "), items[i].Expr.String())
		}
	}
	return nil
}

// notOperand unwraps a top-level NOT, reporting whether one was present.
func notOperand(e gql.Expr) (gql.Expr, bool) {
	if u, ok := e.(*gql.UnaryExpr); ok && u.Op == "NOT" {
		return u.Operand, true
	}
	return nil, false
}

// labelDisjunction flattens an OR-tree of fn(v) = 'T' comparisons into
// the sorted type list, where fn is LABEL (vertices) or TYPE (edges).
func labelDisjunction(e gql.Expr, fn, v string) ([]string, error) {
	var types []string
	var walk func(e gql.Expr) error
	walk = func(e gql.Expr) error {
		b, ok := e.(*gql.BinaryExpr)
		if !ok {
			return fmt.Errorf("views: expected %s(%s) = '...' [OR ...], got %s", fn, v, e.String())
		}
		if b.Op == "OR" {
			if err := walk(b.Left); err != nil {
				return err
			}
			return walk(b.Right)
		}
		if b.Op != "=" {
			return fmt.Errorf("views: expected %s(%s) = '...' comparisons, got operator %s", fn, v, b.Op)
		}
		call, ok := b.Left.(*gql.FuncCall)
		if !ok || call.Name != fn || call.Star || len(call.Args) != 1 {
			return fmt.Errorf("views: expected %s(%s) on the left of =, got %s", fn, v, b.Left.String())
		}
		if id, ok := call.Args[0].(*gql.Ident); !ok || id.Name != v {
			return fmt.Errorf("views: %s must apply to the pattern variable %s, got %s", fn, v, call.Args[0].String())
		}
		lit, ok := b.Right.(*gql.Lit)
		if !ok {
			return fmt.Errorf("views: expected a string literal on the right of =, got %s", b.Right.String())
		}
		s, ok := lit.Value.(string)
		if !ok || s == "" {
			return fmt.Errorf("views: expected a non-empty string literal type name, got %s", b.Right.String())
		}
		types = append(types, s)
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	sort.Strings(types)
	return types, nil
}

// wantSourceSinkWhere matches INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 (in
// either conjunct order).
func wantSourceSinkWhere(e gql.Expr, x, y string) error {
	fail := func() error {
		return fmt.Errorf("views: a connector WHERE clause must be INDEGREE(%s) = 0 AND OUTDEGREE(%s) = 0 (source-to-sink), got %s", x, y, e.String())
	}
	b, ok := e.(*gql.BinaryExpr)
	if !ok || b.Op != "AND" {
		return fail()
	}
	seen := map[string]bool{}
	for _, side := range []gql.Expr{b.Left, b.Right} {
		cmp, ok := side.(*gql.BinaryExpr)
		if !ok || cmp.Op != "=" {
			return fail()
		}
		call, ok := cmp.Left.(*gql.FuncCall)
		if !ok || call.Star || len(call.Args) != 1 {
			return fail()
		}
		id, ok := call.Args[0].(*gql.Ident)
		if !ok {
			return fail()
		}
		lit, ok := cmp.Right.(*gql.Lit)
		if !ok || lit.Value != int64(0) {
			return fail()
		}
		switch {
		case call.Name == "INDEGREE" && id.Name == x:
			seen["in"] = true
		case call.Name == "OUTDEGREE" && id.Name == y:
			seen["out"] = true
		default:
			return fail()
		}
	}
	if !seen["in"] || !seen["out"] {
		return fail()
	}
	return nil
}

// groupEquality matches v.g = w.g between the two pattern variables and
// returns the shared property name.
func groupEquality(e gql.Expr, x, y string) (string, bool) {
	b, ok := e.(*gql.BinaryExpr)
	if !ok || b.Op != "=" {
		return "", false
	}
	l, lok := b.Left.(*gql.PropAccess)
	r, rok := b.Right.(*gql.PropAccess)
	if !lok || !rok || l.Key != r.Key || l.Base != x || r.Base != y {
		return "", false
	}
	return l.Key, true
}

// aggregatorReturn matches v.g, COUNT(v)[, AGG(v.p)...] and returns the
// group-by property and the extra aggregations.
func aggregatorReturn(items []gql.ReturnItem, v string) (string, map[string]AggFunc, error) {
	if len(items) < 2 {
		return "", nil, fmt.Errorf("views: aggregator patterns RETURN %s.group, COUNT(%s)[, AGG(%s.prop)...], got %d items", v, v, v, len(items))
	}
	pa, ok := items[0].Expr.(*gql.PropAccess)
	if !ok || pa.Base != v {
		return "", nil, fmt.Errorf("views: aggregator patterns group by a property of %s, got %s", v, items[0].Expr.String())
	}
	if err := wantCount(items[1].Expr, v); err != nil {
		return "", nil, err
	}
	aggs, err := aggItems(items[2:], v)
	if err != nil {
		return "", nil, err
	}
	return pa.Key, aggs, nil
}

// wantCount matches COUNT(v).
func wantCount(e gql.Expr, v string) error {
	call, ok := e.(*gql.FuncCall)
	if !ok || call.Name != "COUNT" || call.Star || len(call.Args) != 1 {
		return fmt.Errorf("views: aggregator patterns mark the group with COUNT(%s), got %s", v, e.String())
	}
	if id, ok := call.Args[0].(*gql.Ident); !ok || id.Name != v {
		return fmt.Errorf("views: aggregator patterns mark the group with COUNT(%s), got %s", v, e.String())
	}
	return nil
}

// gqlAggFuncs maps gql aggregate names to view aggregation functions.
var gqlAggFuncs = map[string]AggFunc{
	"SUM": AggSum, "MIN": AggMin, "MAX": AggMax, "COUNT": AggCount, "AVG": AggAvg,
}

// aggItems compiles trailing AGG(v.prop) return items into an Aggs map
// (nil when there are none).
func aggItems(items []gql.ReturnItem, v string) (map[string]AggFunc, error) {
	if len(items) == 0 {
		return nil, nil
	}
	aggs := make(map[string]AggFunc, len(items))
	for _, it := range items {
		call, ok := it.Expr.(*gql.FuncCall)
		if !ok || call.Star || len(call.Args) != 1 {
			return nil, fmt.Errorf("views: expected AGG(%s.prop) aggregation items, got %s", v, it.Expr.String())
		}
		fn, ok := gqlAggFuncs[call.Name]
		if !ok {
			return nil, fmt.Errorf("views: unknown aggregation function %s (supported: SUM, MIN, MAX, COUNT, AVG)", call.Name)
		}
		pa, ok := call.Args[0].(*gql.PropAccess)
		if !ok || pa.Base != v {
			return nil, fmt.Errorf("views: aggregations apply to properties of %s, got %s", v, call.Args[0].String())
		}
		if _, dup := aggs[pa.Key]; dup {
			return nil, fmt.Errorf("views: property %s aggregated twice", pa.Key)
		}
		aggs[pa.Key] = fn
	}
	return aggs, nil
}

// --- canonical rendering (the inverse of CompilePattern) ---

// CanonicalPattern renders the canonical defining pattern for v: text
// that parses and compiles (CompilePattern) back to an equal view, the
// round-trip behind DDL display in SHOW VIEWS, Explain, and candidate
// listings. Views carrying options outside the DDL surface — k-hop
// filters over multiple edge types, DedupPairs — and the same-vertex-type
// connector return an error; the struct API remains their escape hatch.
func CanonicalPattern(v View) (string, error) {
	switch v := v.(type) {
	case KHopConnector:
		if v.DedupPairs {
			return "", errNotDDL(v, "DedupPairs")
		}
		if len(v.EdgeTypes) > 1 {
			return "", errNotDDL(v, "multiple edge types")
		}
		et := ""
		if len(v.EdgeTypes) == 1 {
			et = ":" + v.EdgeTypes[0]
		}
		return fmt.Sprintf("MATCH (x%s)-[p%s*%d..%d]->(y%s) RETURN x, y",
			colonType(v.SrcType), et, v.K, v.K, colonType(v.DstType)), nil
	case SameVertexTypeConnector:
		return "", errSameVertexType(v.VType, v.MaxLen)
	case SameEdgeTypeConnector:
		if v.DedupPairs {
			return "", errNotDDL(v, "DedupPairs")
		}
		if v.MaxLen == 1 {
			return "", errNotDDL(v, "MaxLen 1 (*1..1 is the 1-hop connector)")
		}
		return fmt.Sprintf("MATCH (x)-[p:%s*1..%d]->(y) RETURN x, y", v.EType, v.MaxLen), nil
	case SourceToSinkConnector:
		if v.DedupPairs {
			return "", errNotDDL(v, "DedupPairs")
		}
		return fmt.Sprintf("MATCH (x)-[p*1..%d]->(y) WHERE INDEGREE(x) = 0 AND OUTDEGREE(y) = 0 RETURN x, y", v.MaxLen), nil
	case VertexInclusionSummarizer:
		return "MATCH (v) WHERE " + labelOr("LABEL", "v", v.Types) + " RETURN v", nil
	case VertexRemovalSummarizer:
		return "MATCH (v) WHERE NOT (" + labelOr("LABEL", "v", v.Types) + ") RETURN v", nil
	case EdgeInclusionSummarizer:
		return "MATCH (x)-[e]->(y) WHERE " + labelOr("TYPE", "e", v.Types) + " RETURN x, e, y", nil
	case EdgeRemovalSummarizer:
		return "MATCH (x)-[e]->(y) WHERE NOT (" + labelOr("TYPE", "e", v.Types) + ") RETURN x, e, y", nil
	case VertexAggregatorSummarizer:
		return fmt.Sprintf("MATCH (v:%s) RETURN v.%s, COUNT(v)%s", v.VType, v.GroupBy, aggTail("v", v.Aggs)), nil
	case EdgeAggregatorSummarizer:
		return fmt.Sprintf("MATCH (x)-[e%s]->(y) RETURN x, y, COUNT(e)%s", colonType(v.EType), aggTail("e", v.Aggs)), nil
	case SubgraphAggregatorSummarizer:
		return fmt.Sprintf("MATCH (v:%s)-[e]->(w:%s) WHERE v.%s = w.%s RETURN v.%s, COUNT(v)%s",
			v.VType, v.VType, v.GroupBy, v.GroupBy, v.GroupBy, aggTail("v", v.Aggs)), nil
	}
	return "", fmt.Errorf("views: %T has no canonical DDL pattern", v)
}

func errNotDDL(v View, opt string) error {
	return fmt.Errorf("views: %s uses %s, which the DDL surface cannot express (build it through the struct API)", v.Name(), opt)
}

// errSameVertexType refuses the one Table I class that is not its
// pattern: the same-vertex-type connector ends each path at its first
// intermediate T vertex, while (x:T)-[*1..n]->(y:T) passes through it.
// Like DedupPairs, the class is built through the struct API only.
func errSameVertexType(t string, n int) error {
	return fmt.Errorf("views: (x:%s)-[*1..%d]->(y:%s) is not a same-vertex-type connector, which stops each path "+
		"at its first intermediate %s vertex; build SameVertexTypeConnector through the struct API", t, n, t, t)
}

// labelOr renders the sorted fn(v) = 'T' disjunction.
func labelOr(fn, v string, types []string) string {
	cp := append([]string(nil), types...)
	sort.Strings(cp)
	parts := make([]string, len(cp))
	for i, t := range cp {
		parts[i] = fmt.Sprintf("%s(%s) = '%s'", fn, v, t)
	}
	return strings.Join(parts, " OR ")
}

// aggTail renders trailing aggregation items in propNames order.
func aggTail(v string, aggs map[string]AggFunc) string {
	var b strings.Builder
	for _, p := range propNames(aggs) {
		fmt.Fprintf(&b, ", %s(%s.%s)", strings.ToUpper(string(aggs[p])), v, p)
	}
	return b.String()
}

// propNames lists the aggregated properties in sorted order, the order
// of the aggregate items in a canonical pattern.
func propNames(aggs map[string]AggFunc) []string {
	props := make([]string, 0, len(aggs))
	for p := range aggs {
		props = append(props, p)
	}
	sort.Strings(props)
	return props
}
