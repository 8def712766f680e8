// Package solver decides satisfiability of smt terms. It contains a CDCL
// SAT solver (watched literals, 1-UIP clause learning, VSIDS-style
// activities with a binary order heap for decisions, Luby restarts, phase
// saving) and a Tseitin bit-blaster that reduces QF_BV terms to CNF over
// it. Together they replace the Z3 calls of the paper's implementation.
package solver

import "fmt"

// Lit is a literal: positive v or negative -v for variable v >= 1.
type Lit int

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// index maps a literal to a dense watch index: 2v for positive, 2v+1 for
// negative.
func (l Lit) index() int {
	if l > 0 {
		return 2 * int(l)
	}
	return 2*int(-l) + 1
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String renders the verdict.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

const unassigned int8 = -1

// proofTracer, when non-nil, sees every clause each SAT instance takes
// in or learns and every verdict it returns, so that a test can replay
// the search through an independent checker (rup_test.go). Only
// export_test.go sets it; outside tests the solver pays a nil check per
// added clause, per conflict and per verdict.
var proofTracer interface {
	// clause reports a clause as given to AddClause (learnt false) or a
	// learnt clause, units included (learnt true).
	clause(s *SAT, lits []Lit, learnt bool)
	// verdict reports the outcome of a SolveAssuming call.
	verdict(s *SAT, st Status, assumps []Lit)
}

// SAT is a CDCL SAT solver. The zero value is ready to use.
type SAT struct {
	nVars    int
	clauses  [][]Lit // problem and learnt clauses
	watches  [][]int // lit index → clause indices watching it
	assign   []int8  // var → 0 false, 1 true, -1 unassigned
	level    []int   // var → decision level
	reason   []int   // var → clause index or -1
	phase    []int8  // var → saved phase
	activity []float64
	varInc   float64
	// order is a binary max-heap of variables keyed by (activity
	// descending, index ascending), so its top is exactly the variable a
	// linear scan for "the first unassigned variable of highest
	// activity" picks. Every unassigned variable is in it; assigned ones
	// leave lazily, when decide meets them at the top, and return on
	// backtrack. orderPos maps a variable to its heap slot, -1 if absent.
	order    []int
	orderPos []int
	trail    []Lit
	trailLim []int
	qhead    int
	unsat    bool // a top-level conflict was added

	// Conflicts counts total conflicts across all Solve calls
	// (statistics and restart policy).
	Conflicts int
	// Decisions counts decision literals (assumptions included) and
	// Propagations counts literals taken off the trail by unit
	// propagation, both across all Solve calls (statistics).
	Decisions, Propagations int
	// MaxConflicts bounds each Solve call (the budget is per call, so an
	// incremental session does not starve later queries); 0 means
	// unbounded. Exceeding it yields Unknown.
	MaxConflicts int
	// Stop is the wall-clock watchdog hook: when set it is polled at
	// every conflict (next to the MaxConflicts check) and at every
	// restart, and a true return aborts the search with Unknown — the
	// same explicit degradation as conflict-budget exhaustion, so a
	// deadline can never hang a query, only weaken its verdict.
	// solver.Session wires a context.Context's Err() here; the check is
	// conflict-paced because conflict-free work between two conflicts is
	// polynomially bounded, so the poll adds no inner-loop cost.
	Stop func() bool

	// assumps holds the current solve-under-assumptions literals; they
	// are decided first (in order) and a falsified assumption makes the
	// query Unsat without touching the clause database.
	assumps []Lit

	seen  []bool // scratch for analyze
	clBuf []Lit  // scratch for AddClause's simplification
	inBuf []Lit  // scratch copy of AddClause's input for proofTracer
}

// NewVar allocates a fresh variable and returns its (positive) index.
// Variables are 1-based; index 0 of the internal arrays is padding.
func (s *SAT) NewVar() int {
	if len(s.assign) == 0 {
		s.grow()
	}
	s.nVars++
	s.grow()
	s.orderInsert(s.nVars)
	return s.nVars
}

// grow appends one variable's slot to every per-variable array.
func (s *SAT) grow() {
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, 0)
	s.activity = append(s.activity, 0)
	s.orderPos = append(s.orderPos, -1)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
}

func (s *SAT) value(l Lit) int8 {
	a := s.assign[l.Var()]
	if a == unassigned {
		return unassigned
	}
	if l < 0 {
		return 1 - a
	}
	return a
}

// AddClause adds a clause of literals. Empty clauses (or clauses that
// simplify to empty) make the instance trivially unsatisfiable. Adding
// clauses between Solve calls is allowed: the solver first retracts any
// in-flight decisions back to the root level.
func (s *SAT) AddClause(lits ...Lit) {
	if proofTracer != nil {
		// A copy, so that lits does not escape and callers' variadic
		// arguments stay on their stacks.
		s.inBuf = append(s.inBuf[:0], lits...)
		proofTracer.clause(s, s.inBuf, false)
	}
	if s.unsat {
		return
	}
	if s.decisionLevel() > 0 {
		s.backtrack(0)
	}
	// Simplify: drop duplicate/false literals, detect tautologies. The
	// duplicate scan is linear in the kept literals; the blaster's
	// clauses have at most three.
	cl := s.clBuf[:0]
next:
	for _, l := range lits {
		if l.Var() > s.nVars || l == 0 {
			panic(fmt.Sprintf("sat: bad literal %d", l))
		}
		for _, k := range cl {
			if k == l {
				continue next
			}
			if k == l.Neg() {
				return // tautology
			}
		}
		// Top-level values.
		if s.level[l.Var()] == 0 {
			switch s.value(l) {
			case 1:
				return // already satisfied
			case 0:
				continue // already false at top level
			}
		}
		cl = append(cl, l)
	}
	s.clBuf = cl
	switch len(cl) {
	case 0:
		s.unsat = true
		return
	case 1:
		if !s.enqueue(cl[0], -1) {
			s.unsat = true
		}
		if s.propagate() >= 0 {
			s.unsat = true
		}
		return
	}
	s.attach(append([]Lit(nil), cl...))
}

func (s *SAT) attach(cl []Lit) {
	idx := len(s.clauses)
	s.clauses = append(s.clauses, cl)
	s.watches[cl[0].index()] = append(s.watches[cl[0].index()], idx)
	s.watches[cl[1].index()] = append(s.watches[cl[1].index()], idx)
}

func (s *SAT) enqueue(l Lit, reason int) bool {
	switch s.value(l) {
	case 1:
		return true
	case 0:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = 1
	} else {
		s.assign[v] = 0
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	return true
}

func (s *SAT) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; returns the index of a conflicting
// clause or -1.
func (s *SAT) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falseLit := p.Neg()
		// Compact the watch list in place: ws[:kept] holds the clauses
		// that still watch falseLit, in their original order.
		ws := s.watches[falseLit.index()]
		kept := 0
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			cl := s.clauses[ci]
			// Ensure the false literal is at cl[1].
			if cl[0] == falseLit {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// Satisfied by the other watch?
			if s.value(cl[0]) == 1 {
				ws[kept] = ci
				kept++
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != 0 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1].index()] = append(s.watches[cl[1].index()], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict.
			ws[kept] = ci
			kept++
			if !s.enqueue(cl[0], ci) {
				// Conflict: keep the unvisited watches and report.
				kept += copy(ws[kept:], ws[wi+1:])
				s.watches[falseLit.index()] = ws[:kept]
				return ci
			}
		}
		s.watches[falseLit.index()] = ws[:kept]
	}
	return -1
}

func (s *SAT) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.orderPos[v] >= 0 {
		s.orderUp(s.orderPos[v])
	}
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Rescaling keeps the order except where small activities
		// underflow into ties, so rebuild rather than trust it.
		for i := len(s.order)/2 - 1; i >= 0; i-- {
			s.orderDown(i)
		}
	}
}

// orderBefore is the heap order: higher activity first, then lower
// variable index.
func (s *SAT) orderBefore(a, b int) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *SAT) orderInsert(v int) {
	s.orderPos[v] = len(s.order)
	s.order = append(s.order, v)
	s.orderUp(len(s.order) - 1)
}

func (s *SAT) orderUp(i int) {
	v := s.order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.orderBefore(v, s.order[p]) {
			break
		}
		s.order[i] = s.order[p]
		s.orderPos[s.order[i]] = i
		i = p
	}
	s.order[i] = v
	s.orderPos[v] = i
}

func (s *SAT) orderDown(i int) {
	v := s.order[i]
	n := len(s.order)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.orderBefore(s.order[c+1], s.order[c]) {
			c++
		}
		if !s.orderBefore(s.order[c], v) {
			break
		}
		s.order[i] = s.order[c]
		s.orderPos[s.order[i]] = i
		i = c
	}
	s.order[i] = v
	s.orderPos[v] = i
}

// orderPop removes and returns the heap's top variable.
func (s *SAT) orderPop() int {
	v := s.order[0]
	last := s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	s.orderPos[v] = -1
	if len(s.order) > 0 {
		s.order[0] = last
		s.orderPos[last] = 0
		s.orderDown(0)
	}
	return v
}

// analyze derives a 1-UIP learnt clause from a conflict; returns the
// clause and the backtrack level.
func (s *SAT) analyze(conflict int) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	reason := conflict

	for {
		cl := s.clauses[reason]
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range cl[start:] {
			if p != 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		reason = s.reason[v]
		idx--
	}
	for _, l := range learnt[1:] {
		s.seen[l.Var()] = false
	}

	// Backtrack level: highest level among learnt[1:].
	blevel := 0
	swapIdx := -1
	for i, l := range learnt[1:] {
		if lv := s.level[l.Var()]; lv > blevel {
			blevel = lv
			swapIdx = i + 1
		}
	}
	if swapIdx > 0 {
		learnt[1], learnt[swapIdx] = learnt[swapIdx], learnt[1]
	}
	return learnt, blevel
}

func (s *SAT) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = unassigned
		s.reason[v] = -1
		if s.orderPos[v] < 0 {
			s.orderInsert(v)
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// decide picks the unassigned variable with the highest activity, the
// lowest-indexed one among equals, at its saved phase.
func (s *SAT) decide() Lit {
	best := 0
	for best == 0 && len(s.order) > 0 {
		if v := s.orderPop(); s.assign[v] == unassigned {
			best = v
		}
	}
	if best == 0 {
		return 0
	}
	if s.phase[best] == 1 {
		return Lit(best)
	}
	return Lit(-best)
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int) int {
	k := 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for (1<<uint(k))-1 != i {
		i -= (1 << uint(k-1)) - 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
	return 1 << uint(k-1)
}

// Solve runs the CDCL search. The solver is incremental: Solve may be
// called repeatedly, with clauses added in between; learnt clauses,
// variable activities and saved phases carry over from call to call.
func (s *SAT) Solve() Status {
	return s.SolveAssuming()
}

// SolveAssuming runs the CDCL search with the given literals assumed true
// for the duration of this call only. Unsat means "unsatisfiable under
// the assumptions" — the clause database is untouched, so a later call
// with different assumptions can still be Sat. This is how soft
// preference constraints are decided without re-blasting the formula.
func (s *SAT) SolveAssuming(assumps ...Lit) Status {
	st := s.search(assumps)
	if proofTracer != nil {
		proofTracer.verdict(s, st, assumps)
	}
	return st
}

func (s *SAT) search(assumps []Lit) Status {
	if s.unsat {
		return Unsat
	}
	s.backtrack(0) // retract the previous call's trail
	s.assumps = assumps
	defer func() { s.assumps = nil }()

	s.varInc = 1.0
	restart := 1
	budget := 100 * luby(restart)
	conflictsHere := 0
	startConflicts := s.Conflicts

	if s.propagate() >= 0 {
		s.unsat = true // conflict at the root level is global
		return Unsat
	}
	for {
		conflict := s.propagate()
		if conflict >= 0 {
			s.Conflicts++
			conflictsHere++
			if s.MaxConflicts > 0 && s.Conflicts-startConflicts > s.MaxConflicts {
				return Unknown
			}
			if s.Stop != nil && s.Stop() {
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, blevel := s.analyze(conflict)
			if proofTracer != nil {
				proofTracer.clause(s, learnt, true)
			}
			s.backtrack(blevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], -1) {
					s.unsat = true
					return Unsat
				}
			} else {
				s.attach(learnt)
				s.enqueue(learnt[0], len(s.clauses)-1)
			}
			s.varInc /= 0.95 // VSIDS decay
			continue
		}
		if conflictsHere >= budget {
			// Restart (assumptions are re-established by the decision
			// loop below).
			if s.Stop != nil && s.Stop() {
				return Unknown
			}
			conflictsHere = 0
			restart++
			budget = 100 * luby(restart)
			s.backtrack(0)
			continue
		}
		// Assumptions are decided first, in order, one per level.
		next := Lit(0)
		for next == 0 && s.decisionLevel() < len(s.assumps) {
			p := s.assumps[s.decisionLevel()]
			switch s.value(p) {
			case 1:
				// Already implied: open a dummy level to keep the
				// level ↔ assumption-index correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
			case 0:
				return Unsat // assumption falsified under the others
			default:
				next = p
			}
		}
		if next == 0 {
			next = s.decide()
			if next == 0 {
				return Sat // all variables assigned
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, -1)
		s.Decisions++
	}
}

// ValueOf returns the model value of a variable after Sat.
func (s *SAT) ValueOf(v int) bool { return s.assign[v] == 1 }

// NumVars returns the number of allocated variables.
func (s *SAT) NumVars() int { return s.nVars }

// NumClauses returns the number of clauses (problem + learnt).
func (s *SAT) NumClauses() int { return len(s.clauses) }
