// Package gql implements Kaskade's hybrid query language (§III-B of the
// paper): Cypher-style MATCH graph patterns for path traversals combined
// with SQL-style SELECT blocks for filtering and aggregation, e.g.
//
//	SELECT A.pipelineName, AVG(T_CPU) FROM (
//	  SELECT A, SUM(B.CPU) AS T_CPU FROM (
//	    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
//	          (q_f1:File)-[r*0..8]->(q_f2:File)
//	          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
//	    RETURN q_j1 AS A, q_j2 AS B
//	  ) GROUP BY A, B
//	) GROUP BY A.pipelineName
//
// Besides queries, the language carries Kaskade's view DDL — CREATE
// [MATERIALIZED] VIEW name AS <pattern>, DROP VIEW name, SHOW VIEWS —
// parsed by ParseStatement (see stmt.go); the query-only Parse rejects
// DDL with ErrDDL.
//
// The package provides the lexer, parser, and AST; evaluation lives in
// internal/exec, and view-pattern compilation in internal/views.
package gql

import (
	"fmt"
	"slices"
	"strings"
)

// Query is the root of a parsed query: either a MatchQuery or a
// SelectQuery.
type Query interface {
	isQuery()
	// String renders the query back to (canonicalized) source text.
	String() string
}

// MatchQuery is a Cypher-style graph pattern matching block.
type MatchQuery struct {
	Patterns []PathPattern
	Where    Expr // optional, nil when absent
	Return   []ReturnItem
}

// SelectQuery is a SQL-style block over a subquery.
type SelectQuery struct {
	Items   []ReturnItem
	From    Query
	Where   Expr // optional
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

func (*MatchQuery) isQuery()  {}
func (*SelectQuery) isQuery() {}

// PathPattern is one chain in a MATCH clause:
// (a:T)-[e1]->(b:T)-[e2]->(c). len(Edges) == len(Nodes)-1.
type PathPattern struct {
	Nodes []NodePattern
	Edges []EdgePattern
}

// NodePattern is a vertex pattern (var:Type); both parts are optional in
// the grammar but at least one is present.
type NodePattern struct {
	Var  string // "" for anonymous
	Type string // "" for untyped
}

// EdgePattern is an edge or variable-length path pattern between two
// consecutive node patterns.
type EdgePattern struct {
	Var       string // "" for anonymous
	Type      string // "" matches any edge type
	VarLength bool   // true for -[r*L..U]->
	MinHops   int    // 1 for plain edges
	MaxHops   int    // 1 for plain edges; -1 = unbounded
	Reversed  bool   // true for <-[...]- patterns
}

// ReturnItem is an expression with an optional alias (RETURN x AS A,
// SELECT x AS A).
type ReturnItem struct {
	Expr  Expr
	Alias string // "" when absent; display name falls back to Expr text
}

// Name returns the output column name of the item.
func (r ReturnItem) Name() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// --- expressions ---

// Expr is an expression over binding rows.
type Expr interface {
	isExpr()
	String() string
}

// Ident references a bound variable or column by name.
type Ident struct{ Name string }

// PropAccess reads a property of a bound vertex/edge value: Base.Key.
type PropAccess struct {
	Base string
	Key  string
}

// Lit is a literal value: int64, float64, string, or bool.
type Lit struct{ Value any }

// BinaryExpr is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or boolean (AND OR).
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op      string
	Operand Expr
}

// FuncCall is a function application. Aggregates (SUM, AVG, COUNT, MIN,
// MAX) are marked by IsAggregate; COUNT(*) has Star set.
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	Star bool // COUNT(*)
}

func (*Ident) isExpr()      {}
func (*PropAccess) isExpr() {}
func (*Lit) isExpr()        {}
func (*BinaryExpr) isExpr() {}
func (*UnaryExpr) isExpr()  {}
func (*FuncCall) isExpr()   {}

// aggregateFuncs are the supported aggregation functions.
var aggregateFuncs = map[string]bool{
	"SUM": true, "AVG": true, "COUNT": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregation function.
func (f *FuncCall) IsAggregate() bool { return aggregateFuncs[f.Name] }

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	switch e := e.(type) {
	case *FuncCall:
		if e.IsAggregate() {
			return true
		}
		for _, a := range e.Args {
			if HasAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return HasAggregate(e.Left) || HasAggregate(e.Right)
	case *UnaryExpr:
		return HasAggregate(e.Operand)
	}
	return false
}

// Equal reports whether a and b are the same expression tree. Literals
// compare by type and value, so 1 and 1.0 differ although they render
// alike.
func Equal(a, b Expr) bool {
	switch a := a.(type) {
	case *Ident:
		b, ok := b.(*Ident)
		return ok && *a == *b
	case *PropAccess:
		b, ok := b.(*PropAccess)
		return ok && *a == *b
	case *Lit:
		b, ok := b.(*Lit)
		return ok && a.Value == b.Value
	case *BinaryExpr:
		b, ok := b.(*BinaryExpr)
		return ok && a.Op == b.Op && Equal(a.Left, b.Left) && Equal(a.Right, b.Right)
	case *UnaryExpr:
		b, ok := b.(*UnaryExpr)
		return ok && a.Op == b.Op && Equal(a.Operand, b.Operand)
	case *FuncCall:
		b, ok := b.(*FuncCall)
		return ok && a.Name == b.Name && a.Star == b.Star && slices.EqualFunc(a.Args, b.Args, Equal)
	}
	return false
}

// --- String renderings ---

func (e *Ident) String() string { return e.Name }

func (e *PropAccess) String() string { return e.Base + "." + e.Key }

func (e *Lit) String() string {
	if s, ok := e.Value.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
	}
	return fmt.Sprintf("%v", e.Value)
}

func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "NOT " + e.Operand.String()
	}
	return e.Op + e.Operand.String()
}

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (n NodePattern) String() string {
	if n.Type == "" {
		return "(" + n.Var + ")"
	}
	return "(" + n.Var + ":" + n.Type + ")"
}

func (e EdgePattern) String() string {
	var inner strings.Builder
	inner.WriteString(e.Var)
	if e.Type != "" {
		inner.WriteString(":" + e.Type)
	}
	if e.VarLength {
		inner.WriteString("*")
		if !(e.MinHops == 1 && e.MaxHops == -1) {
			fmt.Fprintf(&inner, "%d..", e.MinHops)
			if e.MaxHops >= 0 {
				fmt.Fprintf(&inner, "%d", e.MaxHops)
			}
		}
	}
	body := inner.String()
	if body != "" {
		body = "[" + body + "]"
	}
	if e.Reversed {
		return "<-" + body + "-"
	}
	return "-" + body + "->"
}

func (p PathPattern) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString(p.Edges[i-1].String())
		}
		b.WriteString(n.String())
	}
	return b.String()
}

func (q *MatchQuery) String() string {
	var b strings.Builder
	b.WriteString("MATCH ")
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(p.String())
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	b.WriteString(" RETURN ")
	for i, r := range q.Return {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Expr.String())
		if r.Alias != "" {
			b.WriteString(" AS " + r.Alias)
		}
	}
	return b.String()
}

func (q *SelectQuery) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, r := range q.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Expr.String())
		if r.Alias != "" {
			b.WriteString(" AS " + r.Alias)
		}
	}
	b.WriteString(" FROM (" + q.From.String() + ")")
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// InnermostMatch returns the MATCH block at the core of a query (queries
// in this language always bottom out in one), or nil if absent. Kaskade's
// constraint miner and rewriter operate on this block.
func InnermostMatch(q Query) *MatchQuery {
	switch q := q.(type) {
	case *MatchQuery:
		return q
	case *SelectQuery:
		return InnermostMatch(q.From)
	}
	return nil
}

// ReplaceInnermostMatch returns a copy of q with its innermost MATCH
// block replaced by m. Wrapping SELECT blocks are shared structurally
// except along the spine.
func ReplaceInnermostMatch(q Query, m *MatchQuery) Query {
	switch q := q.(type) {
	case *MatchQuery:
		return m
	case *SelectQuery:
		cp := *q
		cp.From = ReplaceInnermostMatch(q.From, m)
		return &cp
	}
	return q
}
