package exec

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"kaskade/internal/gql"
)

// groupPlan is an aggregation compiled once per query, for SELECT ...
// GROUP BY and for Cypher-style implicit grouping in RETURN (group by
// the aggregate-free items). A group is its key values and its
// accumulators: each item is compiled into an ordinary expression over
// the group row — the key values, then the accumulator results — which
// finish evaluates with evalExpr like any other row.
type groupPlan struct {
	keyExprs []gql.Expr      // grouping key expressions
	aggNodes []*gql.FuncCall // one per distinct aggregate call across the items
	outs     []gql.Expr      // the items, compiled over the group row
	cols     []string        // the group row's names: keys, then aggregates
}

// compileGroups compiles items grouped by groupBy (nil: implicit
// grouping). It returns nil when nothing aggregates (a pure
// projection), and refuses an item that reads a variable neither
// grouped nor inside an aggregate: no group value answers it.
func compileGroups(items []gql.ReturnItem, groupBy []gql.Expr) (*groupPlan, error) {
	if len(groupBy) == 0 && !hasAggregates(items) {
		return nil, nil
	}
	p := &groupPlan{keyExprs: groupBy}
	if len(groupBy) == 0 {
		for _, item := range items {
			if !gql.HasAggregate(item.Expr) {
				p.keyExprs = append(p.keyExprs, item.Expr)
			}
		}
	}
	// A key that is a bare variable keeps its name, so a property read
	// through it (A.pipelineName under GROUP BY A) reads the key value.
	// Every other slot gets a positional name no identifier can spell.
	for i, k := range p.keyExprs {
		name := "#" + strconv.Itoa(i)
		if id, ok := k.(*gql.Ident); ok {
			name = id.Name
		}
		p.cols = append(p.cols, name)
	}
	nk := len(p.keyExprs)
	var err error
	// compile rewrites e over the group row: an aggregate call becomes a
	// reference to its accumulator's slot (one per distinct call), a
	// subexpression equal to a key a reference to the key's slot. Both
	// compare trees (gql.Equal), so 1 and 1.0 stay apart.
	var compile func(e gql.Expr) gql.Expr
	compile = func(e gql.Expr) gql.Expr {
		if f, ok := e.(*gql.FuncCall); ok && f.IsAggregate() {
			j := slices.IndexFunc(p.aggNodes, func(a *gql.FuncCall) bool { return gql.Equal(a, f) })
			if j < 0 {
				j = len(p.aggNodes)
				p.aggNodes = append(p.aggNodes, f)
				p.cols = append(p.cols, "#"+strconv.Itoa(nk+j))
			}
			return &gql.Ident{Name: p.cols[nk+j]}
		}
		if i := slices.IndexFunc(p.keyExprs, func(k gql.Expr) bool { return gql.Equal(k, e) }); i >= 0 {
			return &gql.Ident{Name: p.cols[i]}
		}
		var name string
		switch e := e.(type) {
		case *gql.Ident:
			name = e.Name
		case *gql.PropAccess:
			if slices.Contains(p.cols, e.Base) {
				return e
			}
			name = e.Base
		case *gql.UnaryExpr:
			return &gql.UnaryExpr{Op: e.Op, Operand: compile(e.Operand)}
		case *gql.BinaryExpr:
			return &gql.BinaryExpr{Op: e.Op, Left: compile(e.Left), Right: compile(e.Right)}
		case *gql.FuncCall:
			args := make([]gql.Expr, len(e.Args))
			for i, a := range e.Args {
				args[i] = compile(a)
			}
			return &gql.FuncCall{Name: e.Name, Args: args, Star: e.Star}
		default:
			return e
		}
		if err == nil {
			err = fmt.Errorf("exec: variable %q is neither grouped nor inside an aggregate", name)
		}
		return e
	}
	for _, item := range items {
		p.outs = append(p.outs, compile(item.Expr))
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// aggregator is one goroutine's grouping state for a plan: its groups,
// in first-seen order.
type aggregator struct {
	*groupPlan
	groups map[string]*aggGroup
	order  []*aggGroup // groups in first-seen order

	// feed-path scratch. feed is goroutine-confined (each chunk owns its
	// aggregator; an inline match has one), so the per-row key values,
	// their encoding and the argument slice are reused across rows
	// instead of reallocated.
	keyBuf   []Value
	keyBytes []byte
	argBuf   []Value
}

// aggGroup is one group: its key and its group row, whose key values
// are exported when the group is created and whose accumulator results
// finish fills in.
type aggGroup struct {
	key  string // its group key (see appendGroupKey)
	row  Row
	accs []accumulator
}

// newAggregator starts a grouping for p (nil for a nil plan: no
// aggregation).
func (p *groupPlan) newAggregator() *aggregator {
	if p == nil {
		return nil
	}
	return &aggregator{
		groupPlan: p,
		groups:    make(map[string]*aggGroup),
		keyBuf:    make([]Value, len(p.keyExprs)),
		argBuf:    make([]Value, len(p.aggNodes)),
	}
}

// newGroup starts the group of the key values in a.keyBuf.
func (a *aggregator) newGroup(key string) *aggGroup {
	g := &aggGroup{key: key, row: make(Row, len(a.cols)), accs: make([]accumulator, len(a.aggNodes))}
	for i, v := range a.keyBuf {
		g.row[i] = exportValue(v)
	}
	for i, node := range a.aggNodes {
		g.accs[i] = newAccumulator(node.Name)
	}
	return g
}

// fold is an aggregation a MATCH driver runs in its yield: either the
// MATCH's own RETURN under implicit grouping, fed straight from the
// matcher, or a SELECT's aggregation over the MATCH (ret non-nil),
// whose input rows are the MATCH's RETURN rows. stage names the profile
// stage that finishes it.
type fold struct {
	plan  *groupPlan
	ret   []gql.ReturnItem // a SELECT's fold: the MATCH's RETURN
	cols  []string         // and its column names
	where gql.Expr         // a SELECT's fold: its WHERE
	stage string
}

// folder is one goroutine's share of a fold: its aggregator and, for a
// SELECT's fold, the scratch row each match's RETURN is evaluated into
// and the first error the SELECT raised.
type folder struct {
	*fold
	agg     *aggregator
	sc      rowScope
	tailErr error
}

// newFolder starts a share of fo (nil for a nil fold: no aggregation).
func (fo *fold) newFolder() *folder {
	if fo == nil {
		return nil
	}
	fd := &folder{fold: fo, agg: fo.plan.newAggregator()}
	if fo.ret != nil {
		fd.sc = rowScope{cols: fo.cols, row: make(Row, len(fo.ret))}
	}
	return fd
}

// feed folds the current match. What fails in the MATCH — evaluating a
// SELECT's fold's RETURN, or anything the MATCH's own aggregation
// raises — is returned and ends the match. What fails in a SELECT is
// kept as tailErr, the first such error, and stops the feeding only:
// the match goes on, so a later row limit, cancellation or RETURN error
// still wins, as it does when the SELECT reads a finished subquery.
func (fd *folder) feed(m *matcher) error {
	if fd.ret == nil {
		return fd.agg.feed(m)
	}
	for i, item := range fd.ret {
		v, err := evalExpr(item.Expr, m)
		if err != nil {
			return err
		}
		fd.sc.row[i] = v
	}
	if fd.tailErr == nil {
		fd.tailErr = filterFeed(fd.where, fd.agg, &fd.sc)
	}
	return nil
}

// merge folds a chunk's folder into fd, the merge target, in partition
// order. A SELECT's fold stops merging at its first error, kept as
// tailErr whether the merge raised it or the chunk did; the MATCH's own
// aggregation returns a merge error, which ends the match.
func (fd *folder) merge(ch *folder) error {
	if fd.tailErr != nil {
		return nil
	}
	if err := fd.agg.mergeFrom(ch.agg); err != nil {
		if fd.ret == nil {
			return err
		}
		fd.tailErr = err
		return nil
	}
	fd.tailErr = ch.tailErr
	return nil
}

// evalKey evaluates the grouping key expressions into a.keyBuf and
// encodes them into a.keyBytes (see appendGroupKey).
func (a *aggregator) evalKey(sc scope) error {
	for i, ke := range a.keyExprs {
		v, err := evalExpr(ke, sc)
		if err != nil {
			return err
		}
		a.keyBuf[i] = v
	}
	var err error
	a.keyBytes, err = appendGroupKey(a.keyBytes[:0], a.keyBuf)
	return err
}

// evalArgs evaluates the aggregate arguments into buf (len ==
// len(a.aggNodes); nil slots for COUNT(*)). Arguments of every
// aggregate except COUNT can be retained by the accumulator
// (minMaxAcc keeps its best value), so they are exported here — COUNT
// only nil-checks its argument and skips the copy.
func (a *aggregator) evalArgs(sc scope, buf []Value) error {
	for i, node := range a.aggNodes {
		if node.Star {
			buf[i] = nil
			continue
		}
		if len(node.Args) != 1 {
			return fmt.Errorf("exec: %s expects one argument", node.Name)
		}
		v, err := evalExpr(node.Args[0], sc)
		if err != nil {
			return err
		}
		if node.Name != "COUNT" {
			v = exportValue(v)
		}
		buf[i] = v
	}
	return nil
}

// feed routes one input row (as a scope) into its group, materializing
// the group on first sight from the row's key values. feed is
// goroutine-confined, so it evaluates into the reusable scratch buffers
// — the accumulators consume argument values immediately (retained ones
// were exported by evalArgs), never the slice itself — and looks the
// group up by the scratch key bytes, which the map index does without
// copying them: a key string is allocated only for a new group.
func (a *aggregator) feed(sc scope) error {
	if err := a.evalKey(sc); err != nil {
		return err
	}
	if err := a.evalArgs(sc, a.argBuf); err != nil {
		return err
	}
	g, ok := a.groups[string(a.keyBytes)]
	if !ok {
		g = a.newGroup(string(a.keyBytes))
		a.groups[g.key] = g
		a.order = append(a.order, g)
	}
	for i, node := range a.aggNodes {
		if err := g.accs[i].add(a.argBuf[i], node.Star); err != nil {
			return err
		}
	}
	return nil
}

// mergeFrom folds a chunk-local aggregator of the same shape into a, in
// the chunk's first-seen group order. A group unseen by a is adopted
// wholesale; a known group merges accumulator states pairwise. Every
// accumulator's merge is exact and associative, so calling mergeFrom
// chunk by chunk in partition order reproduces the group order and
// values of one worker feeding every row. b must not be used afterwards.
func (a *aggregator) mergeFrom(b *aggregator) error {
	for _, bg := range b.order {
		g, ok := a.groups[bg.key]
		if !ok {
			a.groups[bg.key] = bg
			a.order = append(a.order, bg)
			continue
		}
		for i := range g.accs {
			if err := g.accs[i].merge(bg.accs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish produces the grouped output rows in first-seen group order:
// each group's accumulator results complete its group row, over which
// the compiled items evaluate.
func (a *aggregator) finish() ([]Row, error) {
	groups := a.order
	// With no grouping keys, SQL/Cypher aggregation yields exactly one
	// row even on empty input.
	if len(a.keyExprs) == 0 && len(groups) == 0 {
		groups = []*aggGroup{a.newGroup("")}
	}
	var out []Row
	sc := rowScope{cols: a.cols}
	nk := len(a.keyExprs)
	for _, g := range groups {
		for i, acc := range g.accs {
			g.row[nk+i] = acc.result()
		}
		sc.row = g.row
		row := make(Row, len(a.outs))
		for i, e := range a.outs {
			v, err := evalExpr(e, &sc)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// --- accumulators ---

// accumulator folds one aggregate's inputs. Every fold is associative
// and exact, so per-chunk partial states combined by merge in partition
// order yield the same bytes as one sequential fold: COUNT (integer
// addition), MIN/MAX (comparison keeps the earlier partition's value on
// ties, matching the sequential first-seen-wins rule), and SUM/AVG (an
// exact running sum, see exactSum). merge's argument is always the same
// concrete type as the receiver — both were built by newAccumulator for
// the same aggregate node.
type accumulator interface {
	add(v Value, star bool) error
	merge(other accumulator) error
	result() Value
}

func newAccumulator(name string) accumulator {
	switch name {
	case "COUNT":
		return &countAcc{}
	case "SUM":
		return &sumAcc{}
	case "AVG":
		return &avgAcc{}
	case "MIN":
		return &minMaxAcc{wantLess: true}
	case "MAX":
		return &minMaxAcc{wantLess: false}
	}
	panic("exec: unknown aggregate " + name)
}

type countAcc struct{ n int64 }

func (a *countAcc) add(v Value, star bool) error {
	if star || v != nil {
		a.n++
	}
	return nil
}
func (a *countAcc) result() Value { return a.n }

func (a *countAcc) merge(o accumulator) error {
	a.n += o.(*countAcc).n
	return nil
}

// sumAcc is SUM: int64 while every input is int64 (wrapping like int64
// addition), otherwise the correctly rounded exact sum.
type sumAcc struct{ s exactSum }

func (a *sumAcc) add(v Value, _ bool) error {
	if v != nil && !a.s.add(v) {
		return fmt.Errorf("exec: SUM over %T", v)
	}
	return nil
}

func (a *sumAcc) merge(o accumulator) error {
	a.s.merge(&o.(*sumAcc).s)
	return nil
}

func (a *sumAcc) result() Value {
	switch {
	case a.s.n == 0:
		return nil
	case a.s.fl == nil:
		return int64(a.s.lo)
	}
	return a.s.float()
}

// avgAcc is AVG: the correctly rounded exact sum divided by the count.
type avgAcc struct{ s exactSum }

func (a *avgAcc) add(v Value, _ bool) error {
	if v != nil && !a.s.add(v) {
		return fmt.Errorf("exec: AVG over %T", v)
	}
	return nil
}

func (a *avgAcc) merge(o accumulator) error {
	a.s.merge(&o.(*avgAcc).s)
	return nil
}

func (a *avgAcc) result() Value {
	if a.s.n == 0 {
		return nil
	}
	return a.s.float() / float64(a.s.n)
}

type minMaxAcc struct {
	wantLess bool
	best     Value
}

func (a *minMaxAcc) add(v Value, _ bool) error {
	if v == nil {
		return nil
	}
	// NaN is ignored like nil (SQL-NULL-style): compareValues reports it
	// as tying with everything, which would make the fold sensitive to
	// whether NaN arrived first — an order dependence that would break
	// the partial merge's associativity (and give position-dependent
	// answers sequentially, too).
	if f, ok := v.(float64); ok && math.IsNaN(f) {
		return nil
	}
	if a.best == nil {
		a.best = v
		return nil
	}
	c, ok := compareValues(v, a.best)
	if !ok {
		return fmt.Errorf("exec: MIN/MAX over incomparable %T and %T", v, a.best)
	}
	if (a.wantLess && c < 0) || (!a.wantLess && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) result() Value { return a.best }

func (a *minMaxAcc) merge(o accumulator) error {
	b := o.(*minMaxAcc)
	if b.best == nil {
		return nil
	}
	// add keeps a.best unless b's is strictly better, so on ties the
	// earlier partition — the sequential first-seen value — wins.
	return a.add(b.best, false)
}
