package solver

import (
	"context"

	"gauntlet/internal/smt"
)

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	// Model assigns every input variable when Status == Sat.
	Model smt.Assignment
	// Conflicts, Decisions and Propagations are the CDCL effort this
	// result cost (statistics; see the SAT fields of the same names).
	Conflicts, Decisions, Propagations int
}

// add accumulates another query's effort into r.
func (r *Result) add(o Result) {
	r.Conflicts += o.Conflicts
	r.Decisions += o.Decisions
	r.Propagations += o.Propagations
}

// Solve decides the conjunction of the assertions and returns a model when
// satisfiable. maxConflicts bounds the search (0 = unbounded).
func Solve(maxConflicts int, assertions ...*smt.Term) Result {
	s := NewSession(maxConflicts)
	s.Assert(assertions...)
	return s.Solve()
}

// SolveContext is Solve under a wall-clock watchdog: the context's
// deadline/cancellation is polled inside the CDCL search (next to the
// conflict-budget check), and an expired context degrades the verdict to
// Unknown instead of hanging the query.
func SolveContext(ctx context.Context, maxConflicts int, assertions ...*smt.Term) Result {
	s := NewSessionContext(ctx, maxConflicts)
	s.Assert(assertions...)
	return s.Solve()
}

// stopFor derives the SAT watchdog poll from a context. Contexts that can
// never be cancelled (Background, TODO) yield nil so the search loop
// skips the poll entirely.
func stopFor(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// Session is an incremental solving session: one Blaster over one SAT
// instance, queried many times. The formula is bit-blasted exactly once —
// the blaster's memo tables are keyed by interned term, so every shared
// subterm encodes to the same circuit — and each query decides extra
// conditions under SAT assumptions instead of rebuilding the CNF. Learnt
// clauses, activities and phases persist across queries, which is what
// makes path enumeration and soft-preference search fast.
type Session struct {
	b *Blaster
}

// NewSession creates a session with the given per-query conflict budget
// (0 = unbounded).
func NewSession(maxConflicts int) *Session {
	s := &Session{b: NewBlaster()}
	s.b.SAT().MaxConflicts = maxConflicts
	return s
}

// NewSessionContext is NewSession with a wall-clock watchdog: every query
// on the session polls the context at each conflict and degrades to
// Unknown once it expires. A non-cancellable context adds no hook at all,
// so the plain and context paths share one solver loop.
func NewSessionContext(ctx context.Context, maxConflicts int) *Session {
	s := NewSession(maxConflicts)
	s.b.SAT().Stop = stopFor(ctx)
	return s
}

// Assert adds hard constraints. Terms are canonicalized through
// smt.Simplify before blasting — simplification is model-preserving, so
// the session decides the same formula over a smaller circuit, and
// syntactic variants of one constraint encode once.
func (s *Session) Assert(ts ...*smt.Term) {
	for _, t := range ts {
		s.b.Assert(smt.Simplify(t))
	}
}

// Lit encodes a boolean term without asserting it and returns its CNF
// literal, for use as a SolveAssuming assumption. The term is simplified
// first (a constant-collapsing condition becomes the true/false literal
// directly); repeated calls with the same (interned) term return the same
// literal.
func (s *Session) Lit(t *smt.Term) Lit { return s.b.BlastBool(smt.Simplify(t)) }

// Solve decides the asserted constraints.
func (s *Session) Solve() Result { return s.SolveAssuming() }

// SolveAssuming decides the asserted constraints with the given literals
// temporarily assumed true. Unsat means unsatisfiable under the
// assumptions only; the session remains usable.
func (s *Session) SolveAssuming(assumps ...Lit) Result {
	sat := s.b.SAT()
	c, d, p := sat.Conflicts, sat.Decisions, sat.Propagations
	st := sat.SolveAssuming(assumps...)
	res := Result{
		Status:       st,
		Conflicts:    sat.Conflicts - c,
		Decisions:    sat.Decisions - d,
		Propagations: sat.Propagations - p,
	}
	if st == Sat {
		res.Model = s.b.Model()
	}
	return res
}

// BVLits encodes a bitvector term and returns its bit literals (LSB
// first) without asserting anything. The literals can pin the term to a
// concrete value purely through assumptions — no new clauses per query.
// The term is simplified first so its circuit shares the gates of the
// (equally simplified) asserted constraints.
func (s *Session) BVLits(t *smt.Term) []Lit { return s.b.BlastBV(smt.Simplify(t)) }

// SolveAssumingSoft decides the fixed assumptions, then greedily keeps
// each soft assumption group that remains satisfiable, in order. A group
// is atomic: all of its literals are kept or none (one group typically
// encodes one preference constraint). This is the shared engine behind
// SolveWithPreferences and test generation's model steering.
func (s *Session) SolveAssumingSoft(fixed []Lit, soft [][]Lit) Result {
	res := s.SolveAssuming(fixed...)
	if res.Status != Sat || len(soft) == 0 {
		return res
	}
	kept := append([]Lit(nil), fixed...)
	for _, g := range soft {
		trial := s.SolveAssuming(append(kept, g...)...)
		res.add(trial)
		if trial.Status == Sat {
			kept = append(kept, g...)
			res.Model = trial.Model
		}
	}
	return res
}

// SolvePreferNonZero solves the assertions, greedily preferring models in
// which the named variables are non-zero. The paper configures Z3 the same
// way (§6.2): zero-valued test packets can mask miscompilations on targets
// that zero-initialize undefined values.
//
// The preference is best-effort: variables that cannot be non-zero under
// the assertions are left unconstrained.
func SolvePreferNonZero(maxConflicts int, prefer []string, assertions ...*smt.Term) Result {
	var prefs []*smt.Term
	if len(prefer) > 0 {
		// Collect widths of the preferred variables that actually occur
		// (once, up front — not per trial). Preference terms are built in
		// the assertions' context so a rotating service never interns
		// per-query variables into the immortal default context.
		sctx := smt.DefaultContext()
		if len(assertions) > 0 {
			sctx = assertions[0].Context()
		}
		widths := map[string]int{}
		for _, a := range assertions {
			a.Vars(widths)
		}
		for _, name := range prefer {
			w, ok := widths[name]
			if !ok {
				continue
			}
			if w == 0 {
				prefs = append(prefs, sctx.Var(name, 0))
			} else {
				prefs = append(prefs, smt.Ne(sctx.Var(name, w), sctx.Const(0, w)))
			}
		}
	}
	return SolveWithPreferences(maxConflicts, prefs, assertions...)
}

// SolvePreferTermsNonZero is SolvePreferNonZero generalized to arbitrary
// bitvector terms: the solver greedily keeps "term != 0" side conditions
// that remain satisfiable. Test generation uses it to steer extracted
// header fields away from zero (§6.2).
func SolvePreferTermsNonZero(maxConflicts int, prefer []*smt.Term, assertions ...*smt.Term) Result {
	var prefs []*smt.Term
	for _, t := range prefer {
		if t.IsBool() || t.IsConst() {
			continue
		}
		prefs = append(prefs, smt.Ne(t, t.Context().Const(0, t.W)))
	}
	return SolveWithPreferences(maxConflicts, prefs, assertions...)
}

// SolveWithPreferences solves the assertions, greedily keeping each
// preference constraint that remains satisfiable (in order). Preferences
// are soft: an unsatisfiable one is silently dropped.
//
// The hard assertions are blasted once; every preference trial is a
// solve-under-assumptions on the same SAT instance, so trial k costs one
// incremental query instead of re-encoding k-1 kept preferences plus the
// whole base formula.
func SolveWithPreferences(maxConflicts int, prefs []*smt.Term, assertions ...*smt.Term) Result {
	s := NewSession(maxConflicts)
	s.Assert(assertions...)
	res := s.Solve()
	if res.Status != Sat || len(prefs) == 0 {
		return res
	}
	soft := make([][]Lit, len(prefs))
	for i, p := range prefs {
		soft[i] = []Lit{s.Lit(p)}
	}
	out := s.SolveAssumingSoft(nil, soft)
	out.add(res)
	return out
}

// Equivalent checks whether two terms of equal sort are semantically
// identical. When they differ it returns a distinguishing assignment —
// the counterexample translation validation reports (§5.2).
func Equivalent(maxConflicts int, a, b *smt.Term) (bool, smt.Assignment, Status) {
	return EquivalentContext(context.Background(), maxConflicts, a, b)
}

// EquivalentContext is Equivalent under a wall-clock watchdog: an expired
// context aborts the search with Unknown — the same explicit degradation
// as conflict-budget exhaustion — instead of letting one pathological
// miter stall its caller indefinitely.
func EquivalentContext(ctx context.Context, maxConflicts int, a, b *smt.Term) (bool, smt.Assignment, Status) {
	ne := smt.Ne(a, b)
	return equivalence(ne, SolveContext(ctx, maxConflicts, ne))
}

// equivalence turns a solver result on the miter ne (a != b) into an
// Equivalent verdict. A Sat model is replayed through smt.Eval before it
// becomes a counterexample, as EquivalentConcolic does for tape
// witnesses: a model under which a and b agree would mean a fault in the
// blaster or the SAT core, and it degrades to Unknown (which verdict
// caches never keep), never to Sat.
func equivalence(ne *smt.Term, res Result) (bool, smt.Assignment, Status) {
	switch res.Status {
	case Unsat:
		return true, nil, Unsat
	case Sat:
		if smt.Eval(ne, res.Model) == 1 {
			return false, res.Model, Sat
		}
		return false, nil, Unknown
	default:
		return false, nil, Unknown
	}
}
