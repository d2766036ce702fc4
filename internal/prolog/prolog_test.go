package prolog

import (
	"sort"
	"strings"
	"testing"
)

// solveAll is a test helper: consult the program, run the query, and
// return every solution.
func solveAll(t *testing.T, program, query string) []Solution {
	t.Helper()
	m := NewMachine()
	if program != "" {
		if err := m.ConsultString(program); err != nil {
			t.Fatalf("consult: %v", err)
		}
	}
	sols, err := m.Query(query, 0)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	return sols
}

func atoms(sols []Solution, name string) []string {
	var out []string
	for _, s := range sols {
		out = append(out, s.Atom(name))
	}
	return out
}

func ints(sols []Solution, name string) []int64 {
	var out []int64
	for _, s := range sols {
		out = append(out, s.Int(name))
	}
	return out
}

func TestFactsAndRules(t *testing.T) {
	prog := `
		parent(tom, bob).
		parent(bob, ann).
		parent(bob, pat).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`
	sols := solveAll(t, prog, "grandparent(tom, W)")
	got := atoms(sols, "W")
	if len(got) != 2 || got[0] != "ann" || got[1] != "pat" {
		t.Errorf("grandparent(tom,W) = %v, want [ann pat]", got)
	}
}

func TestQuotedAtoms(t *testing.T) {
	prog := `edge('Job', 'File', 'WRITES_TO').`
	sols := solveAll(t, prog, "edge(X, Y, T)")
	if len(sols) != 1 || sols[0].Atom("X") != "Job" || sols[0].Atom("T") != "WRITES_TO" {
		t.Errorf("quoted atoms round-trip failed: %v", sols)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		query string
		want  int64
	}{
		{"X is 2 + 3", 5},
		{"X is 2 + 3 * 4", 14},
		{"X is (2 + 3) * 4", 20},
		{"X is 10 - 3 - 2", 5}, // left associative
		{"X is 7 // 2", 3},
		{"X is -7 // 2", -4}, // floor division
		{"X is 7 mod 3", 1},
		{"X is -7 mod 3", 2}, // positive remainder
		{"X is min(3, 5)", 3},
		{"X is max(3, 5)", 5},
		{"X is abs(-4)", 4},
		{"X is 2 ^ 10", 1024},
		{"X is 6 / 3", 2}, // exact int division stays integral
	}
	for _, tc := range cases {
		sols := solveAll(t, "", tc.query)
		if len(sols) != 1 {
			t.Errorf("%s: %d solutions", tc.query, len(sols))
			continue
		}
		if got := sols[0].Int("X"); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.query, got, tc.want)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	sols := solveAll(t, "", "X is 7 / 2")
	if len(sols) != 1 {
		t.Fatalf("7/2: %d solutions", len(sols))
	}
	f, ok := deref(sols[0]["X"]).(Float)
	if !ok || float64(f) != 3.5 {
		t.Errorf("7/2 = %v, want 3.5", sols[0]["X"])
	}
}

func TestArithmeticErrors(t *testing.T) {
	m := NewMachine()
	if _, err := m.Query("X is 1 / 0", 0); err == nil {
		t.Error("1/0: want error")
	}
	if _, err := m.Query("X is Y + 1", 0); err == nil {
		t.Error("unbound in arithmetic: want error")
	}
	if _, err := m.Query("X is foo + 1", 0); err == nil {
		t.Error("atom in arithmetic: want error")
	}
}

func TestComparisons(t *testing.T) {
	yes := []string{"1 < 2", "2 =< 2", "3 > 2", "3 >= 3", "2 =:= 2", "2 =\\= 3", "1 + 1 =:= 2"}
	for _, q := range yes {
		if len(solveAll(t, "", q)) != 1 {
			t.Errorf("%s: want success", q)
		}
	}
	no := []string{"2 < 1", "2 =:= 3"}
	for _, q := range no {
		if len(solveAll(t, "", q)) != 0 {
			t.Errorf("%s: want failure", q)
		}
	}
}

func TestUnificationBuiltins(t *testing.T) {
	if len(solveAll(t, "", "f(X, b) = f(a, Y), X = a, Y = b")) != 1 {
		t.Error("compound unification failed")
	}
	if len(solveAll(t, "", "f(a) = f(b)")) != 0 {
		t.Error("f(a)=f(b) should fail")
	}
	if len(solveAll(t, "", "X \\= X")) != 0 {
		t.Error("X \\= X should fail")
	}
	if len(solveAll(t, "", "a \\= b")) != 1 {
		t.Error("a \\= b should succeed")
	}
	if len(solveAll(t, "", "f(X) == f(X)")) != 1 {
		t.Error("structural equality on shared var failed")
	}
	if len(solveAll(t, "", "f(X) == f(Y)")) != 0 {
		t.Error("f(X) == f(Y) should fail (distinct vars)")
	}
}

func TestListPredicates(t *testing.T) {
	sols := solveAll(t, "", "member(X, [a, b, c])")
	if got := atoms(sols, "X"); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("member = %v", got)
	}
	sols = solveAll(t, "", "append([1,2], [3], L)")
	if len(sols) != 1 {
		t.Fatalf("append: %d solutions", len(sols))
	}
	elems, ok := ListSlice(sols[0]["L"])
	if !ok || len(elems) != 3 {
		t.Errorf("append result = %v", TermString(sols[0]["L"]))
	}
	// append in splitting mode enumerates all splits.
	sols = solveAll(t, "", "append(A, B, [1,2,3])")
	if len(sols) != 4 {
		t.Errorf("append split: %d solutions, want 4", len(sols))
	}
	sols = solveAll(t, "", "reverse([1,2,3], R)")
	if len(sols) != 1 || TermString(sols[0]["R"]) != "[3,2,1]" {
		t.Errorf("reverse = %v", TermString(sols[0]["R"]))
	}
	sols = solveAll(t, "", "length([a,b,c], N)")
	if len(sols) != 1 || sols[0].Int("N") != 3 {
		t.Errorf("length = %v", sols)
	}
	sols = solveAll(t, "", "sum_list([1,2,3,4], S)")
	if len(sols) != 1 || sols[0].Int("S") != 10 {
		t.Errorf("sum_list = %v", sols)
	}
	sols = solveAll(t, "", "max_list([3,1,4,1,5], M)")
	if len(sols) != 1 || sols[0].Int("M") != 5 {
		t.Errorf("max_list = %v", sols)
	}
}

func TestBetween(t *testing.T) {
	sols := solveAll(t, "", "between(2, 5, X)")
	got := ints(sols, "X")
	if len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Errorf("between(2,5,X) = %v", got)
	}
	if len(solveAll(t, "", "between(1, 3, 2)")) != 1 {
		t.Error("between(1,3,2) should succeed")
	}
	if len(solveAll(t, "", "between(1, 3, 7)")) != 0 {
		t.Error("between(1,3,7) should fail")
	}
	if len(solveAll(t, "", "between(3, 1, X)")) != 0 {
		t.Error("empty range should fail")
	}
}

func TestNegationAsFailure(t *testing.T) {
	prog := `
		edge(a, b).
		edge(b, c).
		nonedge(X, Y) :- node(X), node(Y), \+ edge(X, Y).
		node(a). node(b). node(c).
	`
	sols := solveAll(t, prog, "nonedge(a, X)")
	got := atoms(sols, "X")
	want := []string{"a", "c"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("nonedge(a,X) = %v, want %v", got, want)
	}
	// not/1 is an alias.
	if len(solveAll(t, prog, "not(edge(a, c))")) != 1 {
		t.Error("not(edge(a,c)) should succeed")
	}
	// Bindings made inside \+ must not leak.
	sols = solveAll(t, prog, "\\+ edge(a, z), X = kept")
	if len(sols) != 1 || sols[0].Atom("X") != "kept" {
		t.Errorf("bindings after \\+ = %v", sols)
	}
}

func TestFindall(t *testing.T) {
	prog := `p(1). p(2). p(3).`
	sols := solveAll(t, prog, "findall(X, p(X), L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[1,2,3]" {
		t.Errorf("findall = %v", TermString(sols[0]["L"]))
	}
	// findall with no solutions yields [].
	sols = solveAll(t, prog, "findall(X, (p(X), X > 10), L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[]" {
		t.Errorf("empty findall = %v", TermString(sols[0]["L"]))
	}
	// Template may be compound.
	sols = solveAll(t, prog, "findall(X-Y, (p(X), p(Y), Y is X + 1), L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[1-2,2-3]" {
		t.Errorf("compound findall = %v", TermString(sols[0]["L"]))
	}
}

func TestSetofAndSort(t *testing.T) {
	prog := `q(3). q(1). q(3). q(2).`
	sols := solveAll(t, prog, "setof(X, q(X), L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[1,2,3]" {
		t.Errorf("setof = %v", TermString(sols[0]["L"]))
	}
	// setof fails when there are no solutions (unlike findall).
	if len(solveAll(t, prog, "setof(X, (q(X), X > 10), L)")) != 0 {
		t.Error("setof with no solutions should fail")
	}
	sols = solveAll(t, "", "sort([c, a, b, a], L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[a,b,c]" {
		t.Errorf("sort = %v", TermString(sols[0]["L"]))
	}
	sols = solveAll(t, "", "msort([c, a, b, a], L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[a,a,b,c]" {
		t.Errorf("msort = %v", TermString(sols[0]["L"]))
	}
}

func TestCut(t *testing.T) {
	prog := `
		first(X) :- member(X, [1, 2, 3]), !.
		max(X, Y, X) :- X >= Y, !.
		max(_, Y, Y).
	`
	sols := solveAll(t, prog, "first(X)")
	if len(sols) != 1 || sols[0].Int("X") != 1 {
		t.Errorf("first/1 with cut = %v", ints(sols, "X"))
	}
	sols = solveAll(t, prog, "max(3, 5, M)")
	if len(sols) != 1 || sols[0].Int("M") != 5 {
		t.Errorf("max(3,5) = %v", ints(sols, "M"))
	}
	sols = solveAll(t, prog, "max(5, 3, M)")
	if len(sols) != 1 || sols[0].Int("M") != 5 {
		t.Errorf("max(5,3) = %v (cut failed to commit)", ints(sols, "M"))
	}
	// Cut is local to the clause: callers still backtrack.
	sols = solveAll(t, prog, "member(Y, [a,b]), first(_)")
	if len(sols) != 2 {
		t.Errorf("cut leaked into caller: %d solutions, want 2", len(sols))
	}
}

func TestIfThenElse(t *testing.T) {
	prog := `classify(X, neg) :- ( X < 0 -> true ; fail ).
	         sign(X, S) :- ( X > 0 -> S = pos ; X < 0 -> S = neg ; S = zero ).`
	sols := solveAll(t, prog, "sign(5, S)")
	if len(sols) != 1 || sols[0].Atom("S") != "pos" {
		t.Errorf("sign(5) = %v", atoms(sols, "S"))
	}
	sols = solveAll(t, prog, "sign(-5, S)")
	if len(sols) != 1 || sols[0].Atom("S") != "neg" {
		t.Errorf("sign(-5) = %v", atoms(sols, "S"))
	}
	sols = solveAll(t, prog, "sign(0, S)")
	if len(sols) != 1 || sols[0].Atom("S") != "zero" {
		t.Errorf("sign(0) = %v", atoms(sols, "S"))
	}
	// Condition commits to its first solution.
	sols = solveAll(t, "p(1). p(2).", "( p(X) -> true ; fail )")
	if len(sols) != 1 || sols[0].Int("X") != 1 {
		t.Errorf("if-then-else did not commit: %v", ints(sols, "X"))
	}
}

func TestDisjunction(t *testing.T) {
	sols := solveAll(t, "", "( X = a ; X = b )")
	got := atoms(sols, "X")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("disjunction = %v", got)
	}
}

func TestHigherOrder(t *testing.T) {
	prog := `double(X, Y) :- Y is X * 2.
	         sum(X, Y, R) :- R is X + Y.
	         bigenough(X) :- X >= 2.`
	sols := solveAll(t, prog, "maplist(double, [1,2,3], L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[2,4,6]" {
		t.Errorf("maplist = %v", TermString(sols[0]["L"]))
	}
	sols = solveAll(t, prog, "foldl(sum, [1,2,3], 0, R)")
	if len(sols) != 1 || sols[0].Int("R") != 6 {
		t.Errorf("foldl = %v", sols)
	}
	sols = solveAll(t, prog, "convlist(double, [1,2], L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[2,4]" {
		t.Errorf("convlist = %v", TermString(sols[0]["L"]))
	}
	sols = solveAll(t, prog, "include(bigenough, [1,2,3], L)")
	if len(sols) != 1 || TermString(sols[0]["L"]) != "[2,3]" {
		t.Errorf("include = %v", TermString(sols[0]["L"]))
	}
	if len(solveAll(t, prog, "forall(member(X, [2,3,4]), bigenough(X))")) != 1 {
		t.Error("forall should succeed")
	}
	if len(solveAll(t, prog, "forall(member(X, [1,2]), bigenough(X))")) != 0 {
		t.Error("forall should fail")
	}
}

func TestRecursivePaths(t *testing.T) {
	// The shape of the paper's schemaKHopPath rule (Lst. 2).
	prog := `
		schemaEdge('Job', 'File', 'WRITES_TO').
		schemaEdge('File', 'Job', 'IS_READ_BY').
		schemaKHopPath(X, Y, K) :- schemaKHopPath(X, Y, K, []).
		schemaKHopPath(X, Y, 1, _) :- schemaEdge(X, Y, _).
		schemaKHopPath(X, Y, K, Trail) :-
			schemaEdge(X, Z, _), not(member(Z, Trail)),
			schemaKHopPath(Z, Y, K1, [X|Trail]), K is K1 + 1.
	`
	sols := solveAll(t, prog, "schemaKHopPath('Job', 'Job', K)")
	got := ints(sols, "K")
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Job->Job path lengths = %v, want [2]", got)
	}
	sols = solveAll(t, prog, "schemaKHopPath('Job', 'File', K)")
	if got := ints(sols, "K"); len(got) != 1 || got[0] != 1 {
		t.Errorf("Job->File path lengths = %v, want [1]", got)
	}
}

func TestUnknownPredicateIsError(t *testing.T) {
	m := NewMachine()
	if _, err := m.Query("no_such_predicate(X)", 0); err == nil {
		t.Error("unknown predicate: want error")
	}
}

func TestStepLimit(t *testing.T) {
	m := NewMachine()
	m.MaxSteps = 10_000
	if err := m.ConsultString(`loop :- loop.`); err != nil {
		t.Fatal(err)
	}
	_, err := m.Query("loop", 0)
	if err != ErrStepLimit && err != ErrDepthLimit {
		t.Errorf("infinite loop: got %v, want step/depth limit", err)
	}
}

func TestDepthLimit(t *testing.T) {
	m := NewMachine()
	m.MaxDepth = 50
	if err := m.ConsultString(`count(N) :- N1 is N + 1, count(N1).`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("count(0)", 0); err != ErrDepthLimit {
		t.Errorf("deep recursion: got %v, want ErrDepthLimit", err)
	}
}

func TestQueryLimit(t *testing.T) {
	sols := solveAll(t, "p(1). p(2). p(3).", "p(X)")
	if len(sols) != 3 {
		t.Fatalf("unlimited: %d", len(sols))
	}
	m := NewMachine()
	if err := m.ConsultString("p(1). p(2). p(3)."); err != nil {
		t.Fatal(err)
	}
	two, err := m.Query("p(X)", 2)
	if err != nil || len(two) != 2 {
		t.Errorf("limit 2: %d solutions, err=%v", len(two), err)
	}
}

func TestAssertzAndPredicates(t *testing.T) {
	m := NewMachine()
	if err := m.AssertFact("schemaVertex('Job')"); err != nil {
		t.Fatal(err)
	}
	if err := m.AssertFact("schemaVertex('File')."); err != nil {
		t.Fatal(err)
	}
	sols, err := m.Query("schemaVertex(X)", 0)
	if err != nil || len(sols) != 2 {
		t.Fatalf("facts: %v, err=%v", sols, err)
	}
	// Redefining a builtin is rejected; library predicates (member/2)
	// remain extensible like in standard Prolog.
	if err := m.AssertFact("is(a, b)"); err == nil {
		t.Error("redefining is/2 should fail")
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"p(a",        // unclosed args
		"p(a)) .",    // stray paren
		"'unclosed",  // unterminated atom
		"p(a) q(b).", // missing operator
		"1 :- x.",    // non-callable head
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q): want error", src)
		}
	}
}

func TestTermStringRoundTrip(t *testing.T) {
	cases := []string{
		"foo",
		"foo(bar,baz)",
		"[1,2,3]",
		"[a|T]",
		"f(X,g(Y,[1,2]))",
		"'Has Space'(x)",
		"1+2*3",
		"(1+2)*3",
	}
	for _, src := range cases {
		t1, err := ParseTerm(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		s := TermString(t1)
		t2, err := ParseTerm(s)
		if err != nil {
			t.Errorf("reparse %q (printed as %q): %v", src, s, err)
			continue
		}
		if TermString(t2) != s {
			t.Errorf("round trip %q: %q != %q", src, TermString(t2), s)
		}
	}
}

func TestComments(t *testing.T) {
	prog := `
		% a line comment
		p(1). /* a block
		comment */ p(2).
	`
	if got := len(solveAll(t, prog, "p(X)")); got != 2 {
		t.Errorf("facts with comments: %d, want 2", got)
	}
}

func TestSolutionBindingsSurviveBacktracking(t *testing.T) {
	m := NewMachine()
	if err := m.ConsultString("p(f(1)). p(f(2))."); err != nil {
		t.Fatal(err)
	}
	var saved []Term
	g, vars, err := ParseQuery("p(X)")
	if err != nil {
		t.Fatal(err)
	}
	err = m.SolveTerm(g, func() bool {
		saved = append(saved, Resolve(vars["X"]))
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 {
		t.Fatalf("%d solutions", len(saved))
	}
	// After the query, the snapshots must still be ground.
	if TermString(saved[0]) != "f(1)" || TermString(saved[1]) != "f(2)" {
		t.Errorf("snapshots = %s, %s", TermString(saved[0]), TermString(saved[1]))
	}
}

func TestWriteOutput(t *testing.T) {
	m := NewMachine()
	var sb strings.Builder
	m.Out = &sb
	if _, err := m.Query("write(hello), nl", 0); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "hello\n" {
		t.Errorf("write output = %q", sb.String())
	}
}

func TestFunctorArg(t *testing.T) {
	sols := solveAll(t, "", "functor(f(a,b), N, A)")
	if len(sols) != 1 || sols[0].Atom("N") != "f" || sols[0].Int("A") != 2 {
		t.Errorf("functor = %v", sols)
	}
	sols = solveAll(t, "", "functor(T, point, 2)")
	if len(sols) != 1 || Indicator(sols[0]["T"]) != "point/2" {
		t.Errorf("functor build = %v", sols)
	}
	sols = solveAll(t, "", "arg(2, f(a,b,c), X)")
	if len(sols) != 1 || sols[0].Atom("X") != "b" {
		t.Errorf("arg = %v", sols)
	}
}

func TestAtomConcat(t *testing.T) {
	sols := solveAll(t, "", "atom_concat(foo, bar, X)")
	if len(sols) != 1 || sols[0].Atom("X") != "foobar" {
		t.Errorf("atom_concat = %v", sols)
	}
	sols = solveAll(t, "", "atom_concat(A, B, ab)")
	if len(sols) != 3 {
		t.Errorf("atom_concat split: %d solutions, want 3", len(sols))
	}
}

// TestForkIsolation pins Fork's copy-on-assert contract: clauses asserted
// into one fork reach neither the base machine nor a sibling fork, even
// when the base's clause slices have spare capacity to append into.
func TestForkIsolation(t *testing.T) {
	base := NewMachine()
	// Three single-clause consults leave p/1's slice with spare capacity.
	for _, src := range []string{"p(1).", "p(2).", "p(3)."} {
		if err := base.ConsultString(src); err != nil {
			t.Fatal(err)
		}
	}
	basePreds := base.Predicates()
	a, b := base.Fork(), base.Fork()
	for _, step := range []struct {
		m   *Machine
		src string
	}{{a, "p(a). q(a)."}, {b, "p(b). r(b)."}} {
		if err := step.m.ConsultString(step.src); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		m     *Machine
		want  string
		preds int
	}{
		{"base", base, "[1 2 3]", len(basePreds)},
		{"fork A", a, "[1 2 3 a]", len(basePreds) + 1},
		{"fork B", b, "[1 2 3 b]", len(basePreds) + 1},
	} {
		var got []string
		for _, s := range solveOn(t, c.m, "p(X)") {
			got = append(got, TermString(s["X"]))
		}
		if s := "[" + strings.Join(got, " ") + "]"; s != c.want {
			t.Errorf("%s: p(X) = %s, want %s", c.name, s, c.want)
		}
		if n := len(c.m.Predicates()); n != c.preds {
			t.Errorf("%s: %d predicates, want %d", c.name, n, c.preds)
		}
	}
	if _, err := b.Query("q(X)", 0); err == nil {
		t.Error("fork B sees q/1, asserted only into fork A")
	}
}

func solveOn(t *testing.T, m *Machine, query string) []Solution {
	t.Helper()
	sols, err := m.Query(query, 0)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	return sols
}
