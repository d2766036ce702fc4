package prolog

import (
	"fmt"
	"io"
	"strings"
)

// Clause is a stored program clause Head :- Body. Facts have Body == nil
// (treated as true).
type Clause struct {
	Head Term
	Body Term // nil for facts
}

// Machine is a Prolog interpreter instance: a clause database plus solver
// state. A Machine is not safe for concurrent use. Kaskade consults its
// rule program into one base machine and runs each enumeration on a Fork
// of it, so forks of one base may run concurrently.
type Machine struct {
	db    map[string][]*Clause // functor/arity -> clauses in assertion order
	order []string             // deterministic listing order

	trail    []*Var
	steps    int64
	MaxSteps int64     // inference step budget; <=0 means DefaultMaxSteps
	MaxDepth int       // recursion depth bound; <=0 means DefaultMaxDepth
	Out      io.Writer // destination for write/1 and nl/0; nil discards
}

// Steps returns the number of inference steps consumed by the most recent
// query — the enumeration-effort metric used by the search-space ablation.
func (m *Machine) Steps() int64 { return m.steps }

// Default solver guards. View enumeration over mined constraints is
// heavily pruned, so these are generous.
const (
	DefaultMaxSteps = 50_000_000
	DefaultMaxDepth = 100_000
)

// ErrStepLimit is returned when a query exceeds the machine's inference
// step budget, which usually indicates an unbounded rule (exactly the
// failure mode constraint injection is designed to avoid, §IV-A2).
var ErrStepLimit = fmt.Errorf("prolog: inference step limit exceeded")

// ErrDepthLimit is returned when resolution exceeds the recursion bound.
var ErrDepthLimit = fmt.Errorf("prolog: recursion depth limit exceeded")

// NewMachine returns a machine preloaded with the library predicates
// (member/2, append/3, foldl/4-6, convlist/3, ...).
func NewMachine() *Machine {
	m := &Machine{db: make(map[string][]*Clause)}
	if err := m.ConsultString(stdlib); err != nil {
		panic("prolog: stdlib failed to load: " + err.Error())
	}
	return m
}

// Fork returns a machine that starts with m's clauses and solver limits
// and then diverges: clauses asserted into the fork never reach m or a
// sibling fork. Each predicate's clause slice is capped at its length, so
// the fork's first assert to it appends to a copy. The solver never
// mutates a stored clause (resolution renames it), so m and any number
// of its forks may run concurrently, provided nothing asserts into m
// itself after it is first forked.
func (m *Machine) Fork() *Machine {
	db := make(map[string][]*Clause, len(m.db))
	for key, cs := range m.db {
		db[key] = cs[:len(cs):len(cs)]
	}
	return &Machine{
		db:       db,
		order:    m.order[:len(m.order):len(m.order)],
		MaxSteps: m.MaxSteps,
		MaxDepth: m.MaxDepth,
		Out:      m.Out,
	}
}

// ConsultString parses Prolog source text (clauses and facts separated by
// '.') and asserts every clause, in order, at the end of the database.
func (m *Machine) ConsultString(src string) error {
	clauses, err := ParseProgram(src)
	if err != nil {
		return err
	}
	for _, c := range clauses {
		if err := m.Assertz(c); err != nil {
			return err
		}
	}
	return nil
}

// Assertz appends a clause to its predicate's clause list.
func (m *Machine) Assertz(c *Clause) error {
	key := Indicator(c.Head)
	if key == "" {
		return fmt.Errorf("prolog: assert: head %s is not callable", TermString(c.Head))
	}
	if builtins[key] != nil {
		return fmt.Errorf("prolog: assert: cannot redefine builtin %s", key)
	}
	if _, seen := m.db[key]; !seen {
		m.order = append(m.order, key)
	}
	m.db[key] = append(m.db[key], c)
	return nil
}

// AssertFact parses and asserts a single fact or rule given as text,
// e.g. m.AssertFact("schemaEdge('Job','File','WRITES_TO')").
func (m *Machine) AssertFact(src string) error {
	if !strings.HasSuffix(strings.TrimSpace(src), ".") {
		src = src + "."
	}
	return m.ConsultString(src)
}

// Predicates returns the user-defined predicate indicators in definition
// order (for listing/debugging).
func (m *Machine) Predicates() []string {
	return append([]string(nil), m.order...)
}

// clausesFor returns the clauses for a callable term's indicator.
func (m *Machine) clausesFor(goal Term) []*Clause {
	return m.db[Indicator(goal)]
}

// Solution is one answer to a query: the query's named variables resolved
// to ground-ish terms (unbound variables may remain).
type Solution map[string]Term

// Get returns the binding for a variable name.
func (s Solution) Get(name string) Term { return s[name] }

// Atom returns the binding for name as an atom string, or "" if it is not
// an atom.
func (s Solution) Atom(name string) string {
	if a, ok := deref(s[name]).(Atom); ok {
		return string(a)
	}
	return ""
}

// Int returns the binding for name as an int64, or 0 if it is not an
// integer.
func (s Solution) Int(name string) int64 {
	if i, ok := deref(s[name]).(Int); ok {
		return int64(i)
	}
	return 0
}

// Query parses a goal (e.g. "kHopConnector(X,Y,XT,YT,K)") and returns all
// solutions in SLD order. The limit caps the number of solutions; limit<=0
// means unlimited.
func (m *Machine) Query(goal string, limit int) ([]Solution, error) {
	g, vars, err := ParseQuery(goal)
	if err != nil {
		return nil, err
	}
	var out []Solution
	err = m.SolveTerm(g, func() bool {
		sol := make(Solution, len(vars))
		for name, v := range vars {
			sol[name] = Resolve(v)
		}
		out = append(out, sol)
		return limit > 0 && len(out) >= limit
	})
	return out, err
}

// QueryOnce runs the goal and reports whether at least one solution
// exists (returning it if so).
func (m *Machine) QueryOnce(goal string) (Solution, bool, error) {
	sols, err := m.Query(goal, 1)
	if err != nil || len(sols) == 0 {
		return nil, false, err
	}
	return sols[0], true, nil
}

// SolveTerm proves the goal term, invoking yield once per solution while
// the solution's bindings are in place. Returning true from yield stops
// the search. SolveTerm resets the step counter.
func (m *Machine) SolveTerm(goal Term, yield func() (stop bool)) error {
	m.steps = 0
	mark := len(m.trail)
	defer m.undoTo(mark)
	_, err := m.solve(goal, 0, func() (bool, error) { return yield(), nil })
	if isCut(err) {
		err = nil
	}
	return err
}

// bindVar binds v to t and records it on the trail for backtracking.
func (m *Machine) bindVar(v *Var, t Term) {
	v.Ref = t
	m.trail = append(m.trail, v)
}

// undoTo unwinds the trail to a previous mark, unbinding variables.
func (m *Machine) undoTo(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		m.trail[i].Ref = nil
	}
	m.trail = m.trail[:mark]
}

// unify attempts to unify a and b, trailing bindings; it reports success.
// On failure the caller is responsible for undoing to its own mark (the
// solver always does). Unlike most Prologs, unification performs the
// occurs check: X = f(X) fails instead of building a cyclic term. Terms
// in Kaskade's rules are tiny, and totality of Resolve/compare is worth
// the linear walk.
func (m *Machine) unify(a, b Term) bool {
	a, b = deref(a), deref(b)
	if a == b {
		return true
	}
	if av, ok := a.(*Var); ok {
		if occurs(av, b) {
			return false
		}
		m.bindVar(av, b)
		return true
	}
	if bv, ok := b.(*Var); ok {
		if occurs(bv, a) {
			return false
		}
		m.bindVar(bv, a)
		return true
	}
	switch a := a.(type) {
	case Atom:
		b, ok := b.(Atom)
		return ok && a == b
	case Int:
		b, ok := b.(Int)
		return ok && a == b
	case Float:
		b, ok := b.(Float)
		return ok && a == b
	case *Compound:
		bc, ok := b.(*Compound)
		if !ok || a.Functor != bc.Functor || len(a.Args) != len(bc.Args) {
			return false
		}
		for i := range a.Args {
			if !m.unify(a.Args[i], bc.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// occurs reports whether unbound variable v appears inside t.
func occurs(v *Var, t Term) bool {
	switch t := deref(t).(type) {
	case *Var:
		return t == v
	case *Compound:
		for _, a := range t.Args {
			if occurs(v, a) {
				return true
			}
		}
	}
	return false
}

// Unify exposes unification for tests and for fact construction; bindings
// persist until the next query resets the trail, so it is mostly useful on
// scratch machines.
func (m *Machine) Unify(a, b Term) bool {
	mark := len(m.trail)
	if m.unify(a, b) {
		return true
	}
	m.undoTo(mark)
	return false
}
