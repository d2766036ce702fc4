package exec

import (
	"fmt"
	"strings"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// evalExpr evaluates a non-aggregate expression against a scope of
// named values (MATCH bindings or SELECT row columns).
func evalExpr(e gql.Expr, sc scope) (Value, error) {
	switch e := e.(type) {
	case *gql.Lit:
		return e.Value, nil
	case *gql.Ident:
		v, ok := sc.lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("exec: unknown variable %q", e.Name)
		}
		return v, nil
	case *gql.PropAccess:
		base, ok := sc.lookup(e.Base)
		if !ok {
			return nil, fmt.Errorf("exec: unknown variable %q", e.Base)
		}
		return sc.prop(base, e.Key)
	case *gql.UnaryExpr:
		v, err := evalExpr(e.Operand, sc)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "NOT":
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("exec: NOT applied to non-boolean %v", v)
			}
			return !b, nil
		case "-":
			switch v := v.(type) {
			case int64:
				return -v, nil
			case float64:
				return -v, nil
			}
			return nil, fmt.Errorf("exec: unary - applied to %T", v)
		}
		return nil, fmt.Errorf("exec: unknown unary operator %s", e.Op)
	case *gql.BinaryExpr:
		return evalBinary(e, sc)
	case *gql.FuncCall:
		if e.IsAggregate() {
			return nil, fmt.Errorf("exec: aggregate %s used outside an aggregation context", e.Name)
		}
		return evalScalarFunc(e, sc)
	}
	return nil, fmt.Errorf("exec: unsupported expression %T", e)
}

func evalBinary(e *gql.BinaryExpr, sc scope) (Value, error) {
	// Short-circuit booleans. AND evaluates left first — the column
	// prefilter (prefilter.go) relies on that to pre-apply the leftmost
	// conjunct without changing which errors later conjuncts can raise.
	if e.Op == "AND" || e.Op == "OR" {
		lb, err := evalBool(e.Left, sc)
		if err != nil {
			return nil, err
		}
		if e.Op == "AND" && !lb {
			return false, nil
		}
		if e.Op == "OR" && lb {
			return true, nil
		}
		return evalBool(e.Right, sc)
	}
	l, err := evalExpr(e.Left, sc)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(e.Right, sc)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "+", "-", "*", "/":
		return arith(e.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := compareValues(l, r)
		if !ok {
			// Incomparable values are equal only to themselves under "=".
			if e.Op == "=" {
				return false, nil
			}
			if e.Op == "<>" {
				return true, nil
			}
			return nil, fmt.Errorf("exec: cannot compare %T and %T", l, r)
		}
		switch e.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
	}
	return nil, fmt.Errorf("exec: unknown operator %s", e.Op)
}

func evalBool(e gql.Expr, sc scope) (bool, error) {
	v, err := evalExpr(e, sc)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("exec: expected boolean, got %T", v)
	}
	return b, nil
}

func arith(op string, l, r Value) (Value, error) {
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("exec: division by zero")
			}
			if li%ri == 0 {
				return li / ri, nil
			}
			return float64(li) / float64(ri), nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		if op == "+" {
			ls, lsok := l.(string)
			rs, rsok := r.(string)
			if lsok && rsok {
				return ls + rs, nil
			}
		}
		return nil, fmt.Errorf("exec: arithmetic on %T and %T", l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("exec: division by zero")
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("exec: unknown arithmetic operator %s", op)
}

func toFloat(v Value) (float64, bool) {
	switch v := v.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// compareValues compares two values, returning (-1|0|1, true) when they
// are comparable.
func compareValues(l, r Value) (int, bool) {
	if lf, ok := toFloat(l); ok {
		if rf, ok := toFloat(r); ok {
			switch {
			case lf < rf:
				return -1, true
			case lf > rf:
				return 1, true
			}
			return 0, true
		}
		return 0, false
	}
	switch l := l.(type) {
	case string:
		if r, ok := r.(string); ok {
			return strings.Compare(l, r), true
		}
	case bool:
		if r, ok := r.(bool); ok {
			switch {
			case l == r:
				return 0, true
			case !l:
				return -1, true
			}
			return 1, true
		}
	case VertexRef:
		if r, ok := r.(VertexRef); ok {
			return int(l.ID - r.ID), true
		}
	case EdgeRef:
		if r, ok := r.(EdgeRef); ok {
			return int(l.ID - r.ID), true
		}
	case nil:
		if r == nil {
			return 0, true
		}
	}
	return 0, false
}

// evalScalarFunc evaluates the built-in scalar functions. Beyond the
// usual ID/LABEL/LENGTH, the PATH_* family aggregates a property over the
// edges of a bound variable-length path — the primitive behind Q4 ("path
// lengths": max edge timestamp along each path).
func evalScalarFunc(e *gql.FuncCall, sc scope) (Value, error) {
	argv := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := evalExpr(a, sc)
		if err != nil {
			return nil, err
		}
		argv[i] = v
	}
	need := func(n int) error {
		if len(argv) != n {
			return fmt.Errorf("exec: %s expects %d argument(s), got %d", e.Name, n, len(argv))
		}
		return nil
	}
	switch e.Name {
	case "ID":
		if err := need(1); err != nil {
			return nil, err
		}
		switch v := argv[0].(type) {
		case VertexRef:
			return int64(v.ID), nil
		case EdgeRef:
			return int64(v.ID), nil
		}
		return nil, fmt.Errorf("exec: ID of %T", argv[0])
	case "LABEL", "TYPE":
		if err := need(1); err != nil {
			return nil, err
		}
		switch v := argv[0].(type) {
		case VertexRef:
			f, err := snapshot(v.G)
			if err != nil {
				return nil, err
			}
			return f.VertexTypeOf(v.ID), nil
		case EdgeRef:
			f, err := snapshot(v.G)
			if err != nil {
				return nil, err
			}
			return f.EdgeTypeOf(v.ID), nil
		}
		return nil, fmt.Errorf("exec: LABEL of %T", argv[0])
	case "LENGTH":
		if err := need(1); err != nil {
			return nil, err
		}
		switch v := argv[0].(type) {
		case PathRef:
			return int64(len(v.Edges)), nil
		case string:
			return int64(len(v)), nil
		case EdgeRef:
			return int64(1), nil
		}
		return nil, fmt.Errorf("exec: LENGTH of %T", argv[0])
	case "PATH_MAX", "PATH_MIN", "PATH_SUM":
		if err := need(2); err != nil {
			return nil, err
		}
		key, ok := argv[1].(string)
		if !ok {
			return nil, fmt.Errorf("exec: %s expects a property name string", e.Name)
		}
		var g *graph.Graph
		var edges []graph.EdgeID
		switch v := argv[0].(type) {
		case PathRef:
			g, edges = v.G, v.Edges
		case EdgeRef:
			g, edges = v.G, []graph.EdgeID{v.ID}
		default:
			return nil, fmt.Errorf("exec: %s over %T", e.Name, argv[0])
		}
		prop := g.EdgeProperty(key)
		var acc Value
		for _, eid := range edges {
			pv := prop.Get(eid)
			if pv == nil {
				continue
			}
			if acc == nil {
				acc = pv
				continue
			}
			switch e.Name {
			case "PATH_SUM":
				s, err := arith("+", acc, pv)
				if err != nil {
					return nil, err
				}
				acc = s
			case "PATH_MAX":
				if c, ok := compareValues(pv, acc); ok && c > 0 {
					acc = pv
				}
			case "PATH_MIN":
				if c, ok := compareValues(pv, acc); ok && c < 0 {
					acc = pv
				}
			}
		}
		return acc, nil
	case "COALESCE":
		for _, v := range argv {
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	case "ABS":
		if err := need(1); err != nil {
			return nil, err
		}
		switch v := argv[0].(type) {
		case int64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		case float64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		}
		return nil, fmt.Errorf("exec: ABS of %T", argv[0])
	}
	return nil, fmt.Errorf("exec: unknown function %s", e.Name)
}
