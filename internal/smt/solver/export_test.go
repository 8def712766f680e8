package solver

import (
	"fmt"
	"sync"
	"testing"
)

// ProofCheck certifies every SAT search while it is installed (see
// CheckProofs). Each instance's clauses are replayed into its own
// rupChecker: every learnt clause must be RUP with respect to the clauses
// logged before it, every Unsat verdict's conflict clause (the negated
// assumptions, empty for Solve) must be RUP, and every Sat model must
// satisfy each input clause and assumption.
type ProofCheck struct {
	mu   sync.Mutex
	logs map[*SAT]*proofLog
	// Lemmas, Unsat and Sat count the learnt clauses, Unsat verdicts and
	// Sat models checked; Failures counts those that did not check.
	Lemmas, Unsat, Sat, Failures int
	errs                         []string
	// OnVerdict, when set, sees every verdict right after the check, with
	// the solver still holding its model.
	OnVerdict func(s *SAT, st Status)
}

type proofLog struct {
	rup    rupChecker
	inputs [][]Lit
}

// CheckProofs installs a ProofCheck for the rest of the test and fails
// the test at cleanup if any clause or verdict did not check. Tests that
// call it must not run in parallel with other solver tests.
func CheckProofs(t testing.TB) *ProofCheck {
	pc := &ProofCheck{logs: map[*SAT]*proofLog{}}
	proofTracer = pc
	t.Cleanup(func() {
		proofTracer = nil
		if pc.Failures > 0 {
			t.Errorf("proof check: %d failures, first: %v", pc.Failures, pc.errs)
		}
	})
	return pc
}

func (pc *ProofCheck) log(s *SAT) *proofLog {
	l := pc.logs[s]
	if l == nil {
		l = &proofLog{}
		pc.logs[s] = l
	}
	return l
}

func (pc *ProofCheck) fail(format string, args ...any) {
	pc.Failures++
	if len(pc.errs) < 5 {
		pc.errs = append(pc.errs, fmt.Sprintf(format, args...))
	}
}

func (pc *ProofCheck) clause(s *SAT, lits []Lit, learnt bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	l := pc.log(s)
	if !learnt {
		l.inputs = append(l.inputs, append([]Lit(nil), lits...))
		l.rup.add(lits)
		return
	}
	pc.Lemmas++
	if !l.rup.implied(lits) {
		pc.fail("learnt clause %v is not RUP", lits)
	}
	l.rup.add(lits)
}

func (pc *ProofCheck) verdict(s *SAT, st Status, assumps []Lit) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	l := pc.log(s)
	switch st {
	case Unsat:
		pc.Unsat++
		neg := make([]Lit, len(assumps))
		for i, a := range assumps {
			neg[i] = a.Neg()
		}
		if !l.rup.implied(neg) {
			pc.fail("Unsat under assumptions %v is not RUP", assumps)
		}
	case Sat:
		pc.Sat++
		holds := func(x Lit) bool { return s.ValueOf(x.Var()) == (x > 0) }
		for _, a := range assumps {
			if !holds(a) {
				pc.fail("Sat model falsifies assumption %d", a)
			}
		}
		for _, cl := range l.inputs {
			ok := false
			for _, x := range cl {
				ok = ok || holds(x)
			}
			if !ok {
				pc.fail("Sat model falsifies input clause %v", cl)
			}
		}
	}
	if pc.OnVerdict != nil {
		pc.OnVerdict(s, st)
	}
}
