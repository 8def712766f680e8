package solver_test

import (
	"math/rand"
	"testing"

	"gauntlet/internal/smt/solver"
)

// bruteForce decides a CNF over n variables, with the given literals
// assumed, by trying every assignment.
func bruteForce(n int, cnf [][]solver.Lit, assumps []solver.Lit) solver.Status {
	holds := func(m int, l solver.Lit) bool { return (m>>(l.Var()-1)&1 == 1) == (l > 0) }
next:
	for m := 0; m < 1<<n; m++ {
		for _, a := range assumps {
			if !holds(m, a) {
				continue next
			}
		}
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				sat = sat || holds(m, l)
			}
			if !sat {
				continue next
			}
		}
		return solver.Sat
	}
	return solver.Unsat
}

// TestRandom3CNFCertified sweeps seeded random 3-CNF instances around the
// satisfiability threshold, each solved once plainly and then under a
// series of random assumption sets on the same (incremental) instance.
// Every verdict must match brute force, and the proof checker certifies
// every Unsat, every learnt clause and every Sat model.
func TestRandom3CNFCertified(t *testing.T) {
	pc := solver.CheckProofs(t)
	r := rand.New(rand.NewSource(3))
	lit := func(n int) solver.Lit {
		l := solver.Lit(1 + r.Intn(n))
		if r.Intn(2) == 0 {
			return l.Neg()
		}
		return l
	}
	for inst := 0; inst < 300; inst++ {
		n := 6 + r.Intn(7)
		m := 7*n/2 + r.Intn(n+1) // ratio 3.5–4.5: both verdicts occur
		s := &solver.SAT{}
		for range n {
			s.NewVar()
		}
		cnf := make([][]solver.Lit, m)
		for i := range cnf {
			cnf[i] = []solver.Lit{lit(n), lit(n), lit(n)}
			s.AddClause(cnf[i]...)
		}
		if got, want := s.Solve(), bruteForce(n, cnf, nil); got != want {
			t.Fatalf("instance %d: Solve = %v, brute force %v", inst, got, want)
		}
		for q := 0; q < 6; q++ {
			assumps := make([]solver.Lit, 1+r.Intn(4))
			for i := range assumps {
				assumps[i] = lit(n)
			}
			if got, want := s.SolveAssuming(assumps...), bruteForce(n, cnf, assumps); got != want {
				t.Fatalf("instance %d query %d: SolveAssuming(%v) = %v, brute force %v", inst, q, assumps, got, want)
			}
		}
	}
	if pc.Unsat == 0 || pc.Sat == 0 || pc.Lemmas == 0 {
		t.Fatalf("sweep certified %d Unsat, %d Sat, %d learnt clauses; want all nonzero", pc.Unsat, pc.Sat, pc.Lemmas)
	}
	t.Logf("certified %d Unsat verdicts, %d Sat models, %d learnt clauses", pc.Unsat, pc.Sat, pc.Lemmas)
}
