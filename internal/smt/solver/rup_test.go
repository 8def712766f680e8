package solver

import "sort"

// rupChecker replays one SAT instance's clause log and decides whether a
// clause follows from the clauses logged before it by reverse unit
// propagation (RUP): assigning every literal of the clause false and
// propagating units reaches a conflict. Every learnt clause of a 1-UIP
// solver has this property, and so does the conflict clause of each Unsat
// verdict: the empty clause after Solve, the negated assumptions after
// SolveAssuming. Checking each learnt clause before adding it makes the
// Unsat certificate a full forward check of the search.
//
// The checker shares no code or state with SAT: it has its own literal
// encoding, clause store, watch lists and trail, so a fault in the
// solver's propagation cannot hide the same fault here.
type rupChecker struct {
	clauses [][]int // literal codes: 2v for v, 2v+1 for ¬v
	watches [][]int // code → clauses watching it (len ≥ 2 clauses only)
	val     []int8  // code → 1 true, -1 false, 0 unassigned
	trail   []int   // codes assigned true, root facts first
	head    int     // trail[:head] has been propagated
	// contradicted is set once the root facts conflict: every clause,
	// the empty one included, is then implied.
	contradicted bool
}

// code maps a literal to the checker's encoding, growing the tables to
// cover its variable.
func (c *rupChecker) code(l Lit) int {
	v := int(l)
	neg := 0
	if v < 0 {
		v, neg = -v, 1
	}
	for len(c.val) < 2*v+2 {
		c.val = append(c.val, 0)
		c.watches = append(c.watches, nil)
	}
	return 2*v + neg
}

func (c *rupChecker) assign(x int) {
	c.val[x], c.val[x^1] = 1, -1
	c.trail = append(c.trail, x)
}

// add takes a clause into the database at the root: an input clause, or
// a learnt clause that implied has accepted.
func (c *rupChecker) add(lits []Lit) {
	if c.contradicted {
		return
	}
	cl := make([]int, 0, len(lits))
	for _, l := range lits {
		cl = append(cl, c.code(l))
	}
	sort.Ints(cl)
	out := cl[:0]
	for i, x := range cl {
		if i > 0 && x == cl[i-1] {
			continue
		}
		if i > 0 && x == cl[i-1]^1 {
			return // tautology: x and its negation sort next to each other
		}
		out = append(out, x)
	}
	cl = out
	// Order by root value: true, then unassigned, then false.
	rank := func(x int) int { return 1 - int(c.val[x]) }
	sort.SliceStable(cl, func(i, j int) bool { return rank(cl[i]) < rank(cl[j]) })
	switch {
	case len(cl) > 0 && c.val[cl[0]] == 1:
		// Satisfied by a root fact, which is never retracted.
	case len(cl) == 0 || c.val[cl[0]] == -1:
		c.contradicted = true
	case len(cl) == 1 || c.val[cl[1]] == -1:
		c.assign(cl[0])
		if !c.propagate() {
			c.contradicted = true
		}
	default:
		ci := len(c.clauses)
		c.clauses = append(c.clauses, cl)
		c.watches[cl[0]] = append(c.watches[cl[0]], ci)
		c.watches[cl[1]] = append(c.watches[cl[1]], ci)
	}
}

// implied reports whether the clause is RUP with respect to the
// database. The root state is unchanged afterwards.
func (c *rupChecker) implied(lits []Lit) bool {
	if c.contradicted {
		return true
	}
	mark := len(c.trail)
	ok := false
	for _, l := range lits {
		x := c.code(l)
		if c.val[x] == 1 {
			ok = true // satisfied by a root fact or a tautology
			break
		}
		if c.val[x] == 0 {
			c.assign(x ^ 1)
		}
	}
	if !ok {
		ok = !c.propagate()
	}
	for _, x := range c.trail[mark:] {
		c.val[x], c.val[x^1] = 0, 0
	}
	c.trail = c.trail[:mark]
	c.head = mark
	return ok
}

// propagate runs unit propagation to a fixpoint over two watched
// literals per clause and reports false on a conflict.
func (c *rupChecker) propagate() bool {
	for c.head < len(c.trail) {
		f := c.trail[c.head] ^ 1 // the literal that became false
		c.head++
		ws := c.watches[f]
		j := 0
		for i, ci := range ws {
			cl := c.clauses[ci]
			if cl[0] == f {
				cl[0], cl[1] = cl[1], f
			}
			ws[j] = ci
			j++
			if c.val[cl[0]] == 1 {
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if c.val[cl[k]] != -1 {
					cl[1], cl[k] = cl[k], f
					c.watches[cl[1]] = append(c.watches[cl[1]], ci)
					j--
					moved = true
					break
				}
			}
			switch {
			case moved:
			case c.val[cl[0]] == -1:
				j += copy(ws[j:], ws[i+1:])
				c.watches[f] = ws[:j]
				return false
			default:
				c.assign(cl[0])
			}
		}
		c.watches[f] = ws[:j]
	}
	return true
}
