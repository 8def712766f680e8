package solver

import (
	"testing"

	"gauntlet/internal/smt"
)

// TestEquivalenceReplaysModel checks the Sat-model replay: a model that
// distinguishes the two sides is the counterexample, and one under which
// they agree, as a faulty blaster or SAT core could return, degrades the
// verdict to Unknown.
func TestEquivalenceReplaysModel(t *testing.T) {
	x := smt.Var("x", 8)
	ne := smt.Ne(smt.Add(x, smt.Const(1, 8)), smt.Const(0, 8))
	good := smt.Assignment{"x": 7}
	if eq, m, st := equivalence(ne, Result{Status: Sat, Model: good}); eq || st != Sat || m["x"] != 7 {
		t.Fatalf("distinguishing model: got (%v, %v, %v), want (false, x=7, sat)", eq, m, st)
	}
	bad := smt.Assignment{"x": 255}
	if eq, m, st := equivalence(ne, Result{Status: Sat, Model: bad}); eq || st != Unknown || m != nil {
		t.Fatalf("non-replaying model: got (%v, %v, %v), want (false, nil, unknown)", eq, m, st)
	}
	if eq, _, st := equivalence(ne, Result{Status: Unsat}); !eq || st != Unsat {
		t.Fatalf("Unsat: got (%v, %v), want (true, unsat)", eq, st)
	}
}
