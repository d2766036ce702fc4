package exec

import (
	"strings"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
)

// colPrefilter is a plan-time extraction of the WHERE clause's leftmost
// AND-conjunct when it is a simple comparison between the first pattern
// node's property and a literal, and the property is backed by a frozen
// column. Filtering the first node's candidate list against the typed
// column is one flat array pass per candidate — no binding, no walk, no
// boxed property read — before the matcher descends at all. Survivors
// still evaluate the full WHERE (the conjunct is idempotent), so the
// prefilter can only drop candidates the WHERE would reject anyway;
// byte-identical output is preserved because AND evaluates left first
// (see evalBinary) and a failing leftmost conjunct short-circuits any
// error the rest of the expression could have raised.
type colPrefilter struct {
	col  graph.PropColumn
	op   string
	kind graph.PropKind
	litF float64 // numeric literal, promoted like compareValues
	litS string
	litB bool
}

// columnPrefilter derives the prefilter for q, or nil when the shape
// does not apply. The conditions are deliberately conservative: every
// skipped candidate must be one the full pipeline would have produced
// zero rows AND zero errors for. f is the query's frozen snapshot.
func (ex *Executor) columnPrefilter(q *gql.MatchQuery, f *graph.Frozen) *colPrefilter {
	if q.Where == nil || len(q.Patterns) == 0 {
		return nil
	}
	// Variable sanity: dropping a candidate suppresses every binding it
	// would have produced, including the "variable X is not a vertex" /
	// "bound twice" errors a colliding variable raises mid-walk. Reject
	// shapes where those errors are possible so they still surface.
	nodeVars := make(map[string]bool)
	edgeVarCount := make(map[string]int)
	for _, pat := range q.Patterns {
		if len(pat.Nodes) == 0 {
			return nil
		}
		for _, n := range pat.Nodes {
			if n.Var != "" {
				nodeVars[n.Var] = true
			}
		}
		for _, e := range pat.Edges {
			if e.Var != "" {
				edgeVarCount[e.Var]++
			}
		}
	}
	for _, pat := range q.Patterns {
		for _, e := range pat.Edges {
			if e.Var == "" {
				continue
			}
			if nodeVars[e.Var] {
				return nil
			}
			if e.VarLength && edgeVarCount[e.Var] > 1 {
				return nil
			}
		}
	}
	first := q.Patterns[0].Nodes[0]
	if first.Var == "" || first.Type == "" {
		return nil
	}
	// Leftmost AND-conjunct.
	conj := q.Where
	for {
		b, ok := conj.(*gql.BinaryExpr)
		if !ok || b.Op != "AND" {
			break
		}
		conj = b.Left
	}
	cmp, ok := conj.(*gql.BinaryExpr)
	if !ok {
		return nil
	}
	op := cmp.Op
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return nil
	}
	pa, paOK := cmp.Left.(*gql.PropAccess)
	lit, litOK := cmp.Right.(*gql.Lit)
	if !paOK || !litOK {
		// literal OP prop: flip the comparison around.
		pa, paOK = cmp.Right.(*gql.PropAccess)
		lit, litOK = cmp.Left.(*gql.Lit)
		if !paOK || !litOK {
			return nil
		}
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	if pa.Base != first.Var {
		return nil
	}
	col, ok := f.Column(first.Type, pa.Key)
	if !ok {
		return nil
	}
	pf := &colPrefilter{col: col, op: op, kind: col.Kind()}
	switch pf.kind {
	case graph.PropInt, graph.PropFloat:
		switch l := lit.Value.(type) {
		case int64:
			pf.litF = float64(l)
		case float64:
			pf.litF = l
		default:
			return nil
		}
	case graph.PropString:
		s, ok := lit.Value.(string)
		if !ok {
			return nil
		}
		pf.litS = s
	case graph.PropBool:
		b, ok := lit.Value.(bool)
		if !ok {
			return nil
		}
		pf.litB = b
	default:
		return nil
	}
	return pf
}

// keep reports whether vertex v survives the conjunct. It replicates
// evalBinary/compareValues bit for bit: numeric comparisons promote to
// float64 (NaN ties with everything, c == 0), strings use
// strings.Compare, bools order false < true. An absent value is kept
// unless the op is "=": equality against nil is cleanly false (drop),
// "<>" is true (keep), and an ordering comparison errors in the full
// WHERE — keeping the candidate lets that error surface.
func (pf *colPrefilter) keep(v graph.VertexID) bool {
	var c int
	switch pf.kind {
	case graph.PropInt:
		iv, ok := pf.col.Int(v)
		if !ok {
			return pf.op != "="
		}
		c = cmpFloat(float64(iv), pf.litF)
	case graph.PropFloat:
		fv, ok := pf.col.Float(v)
		if !ok {
			return pf.op != "="
		}
		c = cmpFloat(fv, pf.litF)
	case graph.PropString:
		sv, ok := pf.col.Str(v)
		if !ok {
			return pf.op != "="
		}
		c = strings.Compare(sv, pf.litS)
	case graph.PropBool:
		bv, ok := pf.col.Bool(v)
		if !ok {
			return pf.op != "="
		}
		switch {
		case bv == pf.litB:
			c = 0
		case !bv:
			c = -1
		default:
			c = 1
		}
	}
	switch pf.op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return true
}

// cmpFloat mirrors compareValues' numeric ordering, including the NaN
// behavior: every comparison with NaN is false, so NaN "ties".
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// filter returns the candidates that survive the conjunct, in order.
// Scanned candidates are counted as column scans.
func (pf *colPrefilter) filter(cands []graph.VertexID, reg *metrics.Registry) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(cands))
	for _, v := range cands {
		if pf.keep(v) {
			out = append(out, v)
		}
	}
	if reg != nil {
		reg.ColumnScans.Add(int64(len(cands)))
	}
	return out
}
