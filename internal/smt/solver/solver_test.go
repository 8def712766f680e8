package solver_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
)

func TestSATBasics(t *testing.T) {
	// (x | y) & (!x | y) & (x | !y) → x=1,y=1.
	s := &solver.SAT{}
	x := solver.Lit(s.NewVar())
	y := solver.Lit(s.NewVar())
	s.AddClause(x, y)
	s.AddClause(x.Neg(), y)
	s.AddClause(x, y.Neg())
	if got := s.Solve(); got != solver.Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if !s.ValueOf(x.Var()) || !s.ValueOf(y.Var()) {
		t.Fatalf("model x=%v y=%v, want true true", s.ValueOf(x.Var()), s.ValueOf(y.Var()))
	}
}

func TestSATUnsat(t *testing.T) {
	s := &solver.SAT{}
	x := solver.Lit(s.NewVar())
	y := solver.Lit(s.NewVar())
	s.AddClause(x, y)
	s.AddClause(x.Neg(), y)
	s.AddClause(x, y.Neg())
	s.AddClause(x.Neg(), y.Neg())
	if got := s.Solve(); got != solver.Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestSATEmptyClause(t *testing.T) {
	s := &solver.SAT{}
	s.AddClause()
	if got := s.Solve(); got != solver.Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

// TestSATPigeonhole exercises clause learning on PHP(n+1, n), a classic
// hard unsatisfiable family, and certifies the Unsat with the RUP checker.
func TestSATPigeonhole(t *testing.T) {
	const holes = 5
	const pigeons = holes + 1
	pc := solver.CheckProofs(t)
	s := &solver.SAT{}
	v := make([][]solver.Lit, pigeons)
	for p := 0; p < pigeons; p++ {
		v[p] = make([]solver.Lit, holes)
		for h := 0; h < holes; h++ {
			v[p][h] = solver.Lit(s.NewVar())
		}
	}
	for p := 0; p < pigeons; p++ {
		s.AddClause(v[p]...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(v[p1][h].Neg(), v[p2][h].Neg())
			}
		}
	}
	if got := s.Solve(); got != solver.Unsat {
		t.Fatalf("pigeonhole: Solve = %v, want unsat", got)
	}
	if pc.Unsat != 1 || pc.Lemmas == 0 {
		t.Fatalf("proof check saw %d Unsat verdicts and %d learnt clauses, want 1 and some", pc.Unsat, pc.Lemmas)
	}
}

func TestSolveSimpleBV(t *testing.T) {
	x := smt.Var("x", 8)
	// x + 1 == 0 → x = 255.
	res := solver.Solve(0, smt.Eq(smt.Add(x, smt.Const(1, 8)), smt.Const(0, 8)))
	if res.Status != solver.Sat {
		t.Fatalf("status %v, want sat", res.Status)
	}
	if res.Model["x"] != 255 {
		t.Fatalf("x = %d, want 255", res.Model["x"])
	}
}

func TestSolveUnsatBV(t *testing.T) {
	x := smt.Var("x", 8)
	res := solver.Solve(0, smt.Ne(smt.BVXor(x, x), smt.Const(0, 8)))
	if res.Status != solver.Unsat {
		t.Fatalf("status %v, want unsat (x^x is always 0)", res.Status)
	}
}

func TestSolveMul(t *testing.T) {
	x := smt.Var("x", 8)
	// x * 3 == 30 → x = 10 (among others: 8-bit modular; 10 is one root).
	res := solver.Solve(0, smt.Eq(smt.Mul(x, smt.Const(3, 8)), smt.Const(30, 8)))
	if res.Status != solver.Sat {
		t.Fatalf("status %v, want sat", res.Status)
	}
	if got := (res.Model["x"] * 3) & 0xFF; got != 30 {
		t.Fatalf("model x=%d does not satisfy x*3==30 (got %d)", res.Model["x"], got)
	}
}

func TestSolveShift(t *testing.T) {
	x := smt.Var("x", 8)
	sh := smt.Var("sh", 8)
	// (x << sh) == 0x80 with x odd → sh = 7, x&1==1.
	res := solver.Solve(0,
		smt.Eq(smt.Shl(x, sh), smt.Const(0x80, 8)),
		smt.Eq(smt.Extract(x, 0, 0), smt.Const(1, 1)))
	if res.Status != solver.Sat {
		t.Fatalf("status %v, want sat", res.Status)
	}
	m := res.Model
	shift := m["sh"]
	var got uint64
	if shift < 8 {
		got = (m["x"] << shift) & 0xFF
	}
	if got != 0x80 {
		t.Fatalf("model x=%d sh=%d does not satisfy constraint", m["x"], m["sh"])
	}
}

func TestEquivalentTerms(t *testing.T) {
	x := smt.Var("x", 8)
	// x*2 ≡ x<<1.
	eq, _, st := solver.Equivalent(0, smt.Mul(x, smt.Const(2, 8)), smt.Shl(x, smt.Const(1, 8)))
	if !eq || st != solver.Unsat {
		t.Fatal("x*2 and x<<1 should be equivalent")
	}
	// x*2 ≢ x<<2: counterexample required.
	eq, model, st := solver.Equivalent(0, smt.Mul(x, smt.Const(2, 8)), smt.Shl(x, smt.Const(2, 8)))
	if eq || st != solver.Sat {
		t.Fatal("x*2 and x<<2 should differ")
	}
	v := model["x"]
	if (v*2)&0xFF == (v<<2)&0xFF {
		t.Fatalf("counterexample x=%d does not distinguish the terms", v)
	}
}

func TestSolvePreferNonZero(t *testing.T) {
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	res := solver.SolvePreferNonZero(0, []string{"x", "y"},
		smt.Eq(smt.Add(x, y), smt.Const(10, 8)))
	if res.Status != solver.Sat {
		t.Fatalf("status %v, want sat", res.Status)
	}
	if res.Model["x"] == 0 || res.Model["y"] == 0 {
		t.Fatalf("model x=%d y=%d: non-zero preference not honored", res.Model["x"], res.Model["y"])
	}
	if (res.Model["x"]+res.Model["y"])&0xFF != 10 {
		t.Fatalf("model does not satisfy x+y=10")
	}
	// When zero is forced, the preference must yield gracefully.
	res = solver.SolvePreferNonZero(0, []string{"x"},
		smt.Eq(x, smt.Const(0, 8)))
	if res.Status != solver.Sat || res.Model["x"] != 0 {
		t.Fatalf("forced-zero case: %v %v", res.Status, res.Model)
	}
}

// randTerm builds a random 8-bit term over variables a, b.
func randTerm(r *rand.Rand, depth int) *smt.Term {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return smt.Var("a", 8)
		case 1:
			return smt.Var("b", 8)
		default:
			return smt.Const(r.Uint64(), 8)
		}
	}
	x := randTerm(r, depth-1)
	y := randTerm(r, depth-1)
	switch r.Intn(10) {
	case 0:
		return smt.Add(x, y)
	case 1:
		return smt.Sub(x, y)
	case 2:
		return smt.Mul(x, y)
	case 3:
		return smt.BVAnd(x, y)
	case 4:
		return smt.BVOr(x, y)
	case 5:
		return smt.BVXor(x, y)
	case 6:
		return smt.BVNot(x)
	case 7:
		return smt.Shl(x, y)
	case 8:
		return smt.Lshr(x, y)
	default:
		return smt.Ite(smt.Ult(x, y), x, y)
	}
}

// TestBlastAgainstEval cross-checks the bit-blaster against the term
// evaluator: for random terms t and the assertion t == const(eval(t)),
// the solver must find a model, and every model must evaluate correctly.
func TestBlastAgainstEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		term := randTerm(r, 3)
		a := smt.Assignment{"a": r.Uint64() & 0xFF, "b": r.Uint64() & 0xFF}
		want := smt.Eval(term, a)
		// The assignment itself is a witness, so this must be Sat.
		res := solver.Solve(0,
			smt.Eq(term, smt.Const(want, 8)),
			smt.Eq(smt.Var("a", 8), smt.Const(a["a"], 8)),
			smt.Eq(smt.Var("b", 8), smt.Const(a["b"], 8)))
		if res.Status != solver.Sat {
			t.Fatalf("iteration %d: term %s with a=%d b=%d evaluates to %d but solver says %v",
				i, term, a["a"], a["b"], want, res.Status)
		}
		if got := smt.Eval(term, res.Model); got != want {
			t.Fatalf("iteration %d: model does not evaluate to %d (got %d)", i, want, got)
		}
	}
}

// TestEvalFoldingSound property-tests the smart constructors: folding must
// not change semantics.
func TestEvalFoldingSound(t *testing.T) {
	f := func(av, bv uint64, shift uint8) bool {
		a := smt.Assignment{"a": av & 0xFF, "b": bv & 0xFF}
		x := smt.Var("a", 8)
		y := smt.Var("b", 8)
		sh := smt.Const(uint64(shift%12), 8)
		pairs := []struct {
			t    *smt.Term
			want uint64
		}{
			{smt.Add(x, smt.Const(0, 8)), a["a"]},
			{smt.Mul(x, smt.Const(1, 8)), a["a"]},
			{smt.BVXor(x, x), 0},
			{smt.BVAnd(x, smt.Const(0xFF, 8)), a["a"]},
			{smt.Shl(x, sh), shlP4(a["a"], uint64(shift%12), 8)},
			{smt.SatAdd(x, y), satAdd(a["a"], a["b"], 8)},
			{smt.SatSub(x, y), satSub(a["a"], a["b"])},
			{smt.Concat(smt.Extract(x, 7, 4), smt.Extract(x, 3, 0)), a["a"]},
		}
		for _, p := range pairs {
			if smt.Eval(p.t, a) != p.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func shlP4(x, sh uint64, w int) uint64 {
	if sh >= uint64(w) {
		return 0
	}
	return (x << sh) & ((1 << uint(w)) - 1)
}

func satAdd(x, y uint64, w int) uint64 {
	max := uint64(1<<uint(w)) - 1
	if x+y > max {
		return max
	}
	return x + y
}

func satSub(x, y uint64) uint64 {
	if x < y {
		return 0
	}
	return x - y
}

// TestSolverModelsSatisfy property-tests: whenever the solver reports Sat
// for a random equation, its model must satisfy the equation under Eval.
func TestSolverModelsSatisfy(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		lhs := randTerm(r, 2)
		rhs := randTerm(r, 2)
		goal := smt.Eq(lhs, rhs)
		res := solver.Solve(0, goal)
		switch res.Status {
		case solver.Sat:
			if smt.Eval(goal, res.Model) != 1 {
				t.Fatalf("iteration %d: model %v does not satisfy %s", i, res.Model, goal)
			}
		case solver.Unsat:
			// Spot-check with random assignments: none may satisfy.
			for j := 0; j < 64; j++ {
				a := smt.Assignment{"a": r.Uint64() & 0xFF, "b": r.Uint64() & 0xFF}
				if smt.Eval(goal, a) == 1 {
					t.Fatalf("iteration %d: solver said unsat but %v satisfies %s", i, a, goal)
				}
			}
		}
	}
}
