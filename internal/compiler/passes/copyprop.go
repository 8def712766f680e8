package passes

import (
	"gauntlet/internal/p4/ast"
)

// CopyPropagation replaces reads of local variables with the variable or
// literal they were last assigned from, within straight-line regions of a
// block. Any call invalidates all facts (calls may write through inout
// arguments or mutate control state); branch joins invalidate everything
// the branches assign.
type CopyPropagation struct{}

// Name identifies the pass.
func (CopyPropagation) Name() string { return "CopyPropagation" }

// Run propagates copies in every executable body.
func (CopyPropagation) Run(prog *ast.Program) (*ast.Program, error) {
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.ControlDecl:
			for _, l := range d.Locals {
				switch l := l.(type) {
				case *ast.ActionDecl:
					propagateBlock(l.Body, map[string]ast.Expr{})
				case *ast.FunctionDecl:
					propagateBlock(l.Body, map[string]ast.Expr{})
				}
			}
			propagateBlock(d.Apply, map[string]ast.Expr{})
		case *ast.FunctionDecl:
			propagateBlock(d.Body, map[string]ast.Expr{})
		case *ast.ActionDecl:
			propagateBlock(d.Body, map[string]ast.Expr{})
		}
	}
	return prog, nil
}

// copyable reports whether an expression may be propagated: identifiers
// and literals only.
func copyable(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.IntLit, *ast.BoolLit:
		return true
	}
	return false
}

// substitute rewrites identifier reads per the fact table.
func substitute(e ast.Expr, facts map[string]ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	return ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
		if id, ok := x.(*ast.Ident); ok {
			if rep, ok := facts[id.Name]; ok {
				return ast.CloneExpr(rep)
			}
		}
		return x
	})
}

// substituteReads rewrites only the read positions of an lvalue: slice and
// member bases are reads of the same storage, so they are left alone.
func substituteLValue(e ast.Expr, facts map[string]ast.Expr) ast.Expr {
	// Lvalue roots must not be replaced (they name storage); nothing else
	// in an lvalue chain is substitutable in this subset.
	return e
}

// invalidate removes facts about name: both the fact keyed by it and any
// fact whose replacement reads it.
func invalidate(facts map[string]ast.Expr, name string) {
	delete(facts, name)
	for k, v := range facts {
		if id, ok := v.(*ast.Ident); ok && id.Name == name {
			delete(facts, k)
		}
	}
}

// assignedRoots collects the root identifiers written anywhere in a
// statement tree (assignments, call arguments, validity updates).
func assignedRoots(s ast.Stmt, into map[string]bool) {
	ast.InspectStmt(s, func(st ast.Stmt) bool {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if r := ast.RootIdent(st.LHS); r != nil {
				into[r.Name] = true
			}
		case *ast.CallStmt:
			// Conservatively treat every argument root and every name as
			// potentially written: table applies can touch control state.
			for _, a := range st.Call.Args {
				if r := ast.RootIdent(a); r != nil {
					into[r.Name] = true
				}
			}
			into["*"] = true
		case *ast.VarDeclStmt:
			into[st.Name] = true
		}
		return true
	}, func(e ast.Expr) bool {
		if c, ok := e.(*ast.CallExpr); ok {
			if m, isM := c.Func.(*ast.MemberExpr); isM && m.Member != "isValid" {
				into["*"] = true
			}
		}
		return true
	})
}

func propagateBlock(b *ast.BlockStmt, facts map[string]ast.Expr) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		propagateStmt(s, facts)
	}
}

func propagateStmt(s ast.Stmt, facts map[string]ast.Expr) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		s.RHS = substitute(s.RHS, facts)
		s.LHS = substituteLValue(s.LHS, facts)
		root := ast.RootIdent(s.LHS)
		if root == nil {
			return
		}
		if id, whole := s.LHS.(*ast.Ident); whole {
			invalidate(facts, id.Name)
			if copyable(s.RHS) {
				// x = y / x = 3: record the fact, unless self-copy.
				if rid, ok := s.RHS.(*ast.Ident); !ok || rid.Name != id.Name {
					facts[id.Name] = s.RHS
				}
			}
		} else {
			// Partial write (member/slice): kill facts about the root.
			invalidate(facts, root.Name)
		}
	case *ast.VarDeclStmt:
		if s.Init != nil {
			s.Init = substitute(s.Init, facts)
			invalidate(facts, s.Name)
			if copyable(s.Init) {
				facts[s.Name] = s.Init
			}
		} else {
			invalidate(facts, s.Name)
		}
	case *ast.ConstDeclStmt:
		s.Value = substitute(s.Value, facts)
		invalidate(facts, s.Name)
		if copyable(s.Value) {
			facts[s.Name] = s.Value
		}
	case *ast.IfStmt:
		s.Cond = substitute(s.Cond, facts)
		thenFacts := cloneFacts(facts)
		propagateBlock(s.Then, thenFacts)
		if s.Else != nil {
			elseFacts := cloneFacts(facts)
			propagateStmt(s.Else, elseFacts)
		}
		// Join: drop facts about anything either branch writes.
		killed := map[string]bool{}
		assignedRoots(s, killed)
		applyKills(facts, killed)
	case *ast.BlockStmt:
		propagateBlock(s, facts)
		// Names declared in the block go out of scope with it: drop every
		// fact keyed by or naming them, or a read below the block could be
		// rewritten to a name that no longer exists.
		for _, st := range s.Stmts {
			switch d := st.(type) {
			case *ast.VarDeclStmt:
				invalidate(facts, d.Name)
			case *ast.ConstDeclStmt:
				invalidate(facts, d.Name)
			}
		}
	case *ast.CallStmt:
		for i, a := range s.Call.Args {
			// Lvalue arguments may be out/inout destinations; leave them.
			if !ast.IsLValue(a) {
				s.Call.Args[i] = substitute(a, facts)
			}
		}
		// Calls may write anything reachable; drop all facts.
		for k := range facts {
			delete(facts, k)
		}
	case *ast.ReturnStmt:
		s.Value = substitute(s.Value, facts)
	case *ast.SwitchStmt:
		s.Tag = substitute(s.Tag, facts)
		for i := range s.Cases {
			caseFacts := cloneFacts(facts)
			propagateBlock(s.Cases[i].Body, caseFacts)
		}
		killed := map[string]bool{}
		assignedRoots(s, killed)
		applyKills(facts, killed)
	}
}

func cloneFacts(f map[string]ast.Expr) map[string]ast.Expr {
	c := make(map[string]ast.Expr, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func applyKills(facts map[string]ast.Expr, killed map[string]bool) {
	if killed["*"] {
		for k := range facts {
			delete(facts, k)
		}
		return
	}
	for name := range killed {
		invalidate(facts, name)
	}
}
