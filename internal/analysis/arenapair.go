package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// parallelPath is the package that owns the scratch arenas.
const parallelPath = Module + "/internal/parallel"

// ArenaPair checks that every scratch buffer taken from the parallel
// arenas (parallel.GetScratch, parallel.Arena.Get) is returned on every
// path. A buffer that leaks on an early return is not a crash — it is
// quietly re-allocated by the next Get, which is exactly why the bug
// class survives tests: the zero-alloc work of PR 5 nearly shipped
// twice with a Put missing on an error path, and only an allocs/op
// assertion on the happy path caught one of them.
//
// Per function the analyzer tracks each Get-assigned variable (and its
// local aliases) through a structured walk of the body:
//
//   - a `defer ...Put(v)` releases v for every subsequent exit;
//   - a plain Put(v) — including one inside a function literal, such as
//     a release closure — releases v from that statement on;
//   - a return reached while v is still held is a finding;
//   - branches merge pessimistically: after an if/switch, v counts as
//     released only if every non-terminating branch released it.
//
// Ownership transfers are exempt: a buffer stored into a struct field,
// slice, or map, returned to the caller, appended into another
// collection, or sent over a channel is someone else's to Put. See
// DESIGN.md §6.3.
var ArenaPair = &Analyzer{
	Name: "arenapair",
	Doc:  "flag arena Get calls whose buffer is not Put on every path (early returns included)",
	Run:  runArenaPair,
}

func runArenaPair(pass *Pass) error {
	path := pass.Pkg.Path()
	if path == parallelPath || (!strings.HasPrefix(path, Module+"/") && path != Module) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkArenaFunc(pass, fd)
		}
	}
	return nil
}

// isArenaGet / isArenaPut recognize the arena entry points.
func isArenaGet(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObj(info, call)
	return objIsFunc(obj, parallelPath, "", "GetScratch") ||
		objIsFunc(obj, parallelPath, "Arena", "Get")
}

func isArenaPut(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObj(info, call)
	return objIsFunc(obj, parallelPath, "", "PutScratch") ||
		objIsFunc(obj, parallelPath, "Arena", "Put")
}

type arenaGet struct {
	call *ast.CallExpr
	obj  types.Object // the variable the buffer was assigned to
}

func checkArenaFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// Pass 1: find every Get call and the variable it is assigned to.
	var gets []arenaGet
	assigned := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isArenaGet(info, call) {
					continue
				}
				assigned[call] = true
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				} else if len(n.Lhs) == 1 {
					lhs = n.Lhs[0]
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					// Stored straight into a field/slice: ownership
					// transferred at birth; nothing local to track.
					continue
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "arena buffer assigned to _ is never returned to the pool")
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					gets = append(gets, arenaGet{call, obj})
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isArenaGet(info, call) {
					continue
				}
				assigned[call] = true
				if i < len(n.Names) {
					if obj := info.Defs[n.Names[i]]; obj != nil {
						gets = append(gets, arenaGet{call, obj})
					}
				}
			}
		}
		return true
	})
	// Any Get used as a bare expression or argument has no owner at all.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && isArenaGet(info, call) && !assigned[call] {
			pass.Reportf(call.Pos(), "arena buffer is not assigned to a variable, so it can never be Put; assign it and pair the Put")
		}
		return true
	})

	for _, g := range gets {
		checkArenaVar(pass, fd, g)
	}
}

// checkArenaVar verifies the pairing discipline for one Get instance.
func checkArenaVar(pass *Pass, fd *ast.FuncDecl, g arenaGet) {
	info := pass.Info
	aliases := aliasSet(info, fd.Body, g.obj)
	if escapes(info, fd.Body, aliases) {
		return // ownership transferred; the new owner Puts it
	}

	if !containsPut(info, fd.Body, aliases) {
		pass.Reportf(g.call.Pos(), "%s obtained here is never returned to the arena in %s; add a matching Put (or defer it)", g.obj.Name(), funcName(fd))
		return
	}

	sim := &arenaSim{pass: pass, info: info, get: g, aliases: aliases}
	state, _ := sim.walkStmts(fd.Body.List, statePre)
	if state == stateHeld && !sim.reported {
		pass.Reportf(g.call.Pos(), "%s obtained here may reach the end of %s without a Put; release it on the fall-through path", g.obj.Name(), funcName(fd))
	}
}

// aliasSet returns g.obj plus every local variable assigned directly
// from it (w := v, dst = v[:n]). Puts through an alias count as
// releasing the buffer; that keeps ping-pong fold patterns clean.
func aliasSet(info *types.Info, body *ast.BlockStmt, root types.Object) map[types.Object]bool {
	set := map[types.Object]bool{root: true}
	// A few rounds reach transitive aliases (cur := bufA; dst = cur[:m]).
	for range 3 {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !exprIsAliasOf(info, rhs, set) {
					continue
				}
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					if obj := info.Defs[id]; obj != nil {
						set[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						set[obj] = true
					}
				}
			}
			return true
		})
	}
	return set
}

// exprIsAliasOf reports whether e is (a reslice of) a tracked variable.
func exprIsAliasOf(info *types.Info, e ast.Expr, set map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return set[info.Uses[e]]
	case *ast.SliceExpr:
		return exprIsAliasOf(info, e.X, set)
	}
	return false
}

// usesTracked reports whether e mentions any tracked identifier.
func usesTracked(info *types.Info, e ast.Node, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// escapes reports whether the buffer's ownership leaves the function:
// returned, stored into a field/index/dereference or package-level
// variable, placed in a composite literal, or appended into another
// collection.
func escapes(info *types.Info, body *ast.BlockStmt, set map[types.Object]bool) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesTracked(info, r, set) {
					esc = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !usesTracked(info, rhs, set) {
					continue
				}
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				} else if len(n.Lhs) == 1 {
					lhs = n.Lhs[0]
				} else {
					esc = true
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if obj := info.Uses[l]; obj != nil && obj.Parent() == obj.Pkg().Scope() {
						esc = true // stored in a package-level variable
					}
				default:
					esc = true // field, index, or dereference store
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if usesTracked(info, el, set) {
					esc = true
				}
			}
		case *ast.SendStmt:
			// A channel send hands the buffer to the receiver (the
			// streamed V-chunk pattern); the consumer owns the Put.
			if usesTracked(info, n.Value, set) {
				esc = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(info, id) {
				for _, a := range n.Args[1:] {
					if usesTracked(info, a, set) {
						esc = true
					}
				}
			}
		}
		return !esc
	})
	return esc
}

// containsPut reports whether any Put of a tracked variable appears
// anywhere in the body, function literals included.
func containsPut(info *types.Info, n ast.Node, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isArenaPut(info, call) {
			for _, a := range call.Args {
				if usesTracked(info, a, set) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// arenaState is the abstract state of one buffer along one path.
type arenaState int

const (
	// statePre: the Get has not executed yet on this path — there is
	// nothing to leak.
	statePre arenaState = iota
	// stateHeld: the buffer is live and unreleased.
	stateHeld
	// stateRel: the buffer has been returned to the arena (or a defer
	// guarantees it will be).
	stateRel
)

// mergeStates joins two branch exits: a held path dominates (the leak
// potential survives), a released path beats an untracked one only in
// the sense that both are safe — preferring stateRel keeps later
// Put-tracking exact.
func mergeStates(a, b arenaState) arenaState {
	if a == stateHeld || b == stateHeld {
		return stateHeld
	}
	if a == stateRel || b == stateRel {
		return stateRel
	}
	return statePre
}

// arenaSim is the structured walk: it interprets one function body with
// a pre/held/released state for one buffer, branching at control flow.
type arenaSim struct {
	pass     *Pass
	info     *types.Info
	get      arenaGet
	aliases  map[types.Object]bool
	reported bool
}

// walkStmts walks a statement sequence, returning the state at its
// normal exit and whether the sequence always terminates (return/panic).
func (s *arenaSim) walkStmts(stmts []ast.Stmt, state arenaState) (arenaState, bool) {
	for _, st := range stmts {
		var term bool
		state, term = s.walkStmt(st, state)
		if term {
			return state, true
		}
	}
	return state, false
}

func (s *arenaSim) walkStmt(st ast.Stmt, state arenaState) (arenaState, bool) {
	// The statement containing the Get call is where tracking starts.
	// For compound statements the descent below places the transition
	// at the exact branch; for the assignment itself it happens here.
	switch st := st.(type) {
	case *ast.ReturnStmt:
		if state == stateHeld {
			s.pass.Reportf(st.Pos(), "return leaks %s (arena buffer from line %d); Put it before returning or use defer", s.get.obj.Name(), s.pass.Fset.Position(s.get.call.Pos()).Line)
			s.reported = true
		}
		return state, true
	case *ast.DeferStmt:
		if s.stmtPuts(st) {
			return stateRel, false
		}
		return s.track(st, state), false
	case *ast.BlockStmt:
		return s.walkStmts(st.List, state)
	case *ast.IfStmt:
		if st.Init != nil {
			state, _ = s.walkStmt(st.Init, state)
		}
		thenState, elseState := state, state
		// While the buffer is held it is non-nil, so a condition on its
		// nil-ness makes one side vacuous: under `v == nil` the
		// then-branch cannot execute, under `v != nil` the implicit
		// else cannot. This is the guarded-Put idiom of the MSM
		// Jacobian-overflow path. Before the Get runs (statePre) the
		// nil test is meaningful — it usually guards the Get itself —
		// so no forcing applies.
		if eq, isNilCheck := s.nilCheck(st.Cond); isNilCheck && state == stateHeld {
			if eq {
				thenState = stateRel
			} else {
				elseState = stateRel
			}
		}
		thenOut, thenTerm := s.walkStmts(st.Body.List, thenState)
		elseOut, elseTerm := elseState, false
		if st.Else != nil {
			elseOut, elseTerm = s.walkStmt(st.Else, elseState)
		}
		switch {
		case thenTerm && elseTerm:
			return state, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return mergeStates(thenOut, elseOut), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			state, _ = s.walkStmt(st.Init, state)
		}
		bodyOut, _ := s.walkStmts(st.Body.List, state)
		return s.loopMerge(state, bodyOut), false
	case *ast.RangeStmt:
		bodyOut, _ := s.walkStmts(st.Body.List, state)
		return s.loopMerge(state, bodyOut), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return s.walkBranches(st, state)
	case *ast.LabeledStmt:
		return s.walkStmt(st.Stmt, state)
	case *ast.BranchStmt:
		// break/continue/goto exit the straight-line view; leak checks
		// at the enclosing returns still apply.
		return state, true
	case *ast.ExprStmt:
		if isPanicCall(s.info, st.X) {
			return state, true
		}
		if s.stmtPuts(st) {
			return stateRel, false
		}
		return s.track(st, state), false
	default:
		if s.stmtPuts(st) {
			return stateRel, false
		}
		return s.track(st, state), false
	}
}

// track transitions pre → held when the statement contains the Get.
func (s *arenaSim) track(st ast.Stmt, state arenaState) arenaState {
	if state == statePre && nodeContains(st, s.get.call.Pos()) {
		return stateHeld
	}
	return state
}

// loopMerge joins the before-loop and after-one-iteration states. The
// walk is optimistic about zero-iteration loops (a Put inside the body
// counts as releasing) but keeps a Get inside the body held.
func (s *arenaSim) loopMerge(before, body arenaState) arenaState {
	if body == stateHeld {
		return stateHeld
	}
	if body == stateRel {
		return stateRel
	}
	return before
}

// nilCheck recognizes conditions of the form `v == nil` / `v != nil`
// over the tracked buffer (either operand order). It returns whether
// the comparison is == and whether it matched at all.
func (s *arenaSim) nilCheck(cond ast.Expr) (eq, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false, false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil" && s.info.Uses[id] == types.Universe.Lookup("nil")
	}
	var other ast.Expr
	switch {
	case isNil(be.X):
		other = be.Y
	case isNil(be.Y):
		other = be.X
	default:
		return false, false
	}
	id, okIdent := ast.Unparen(other).(*ast.Ident)
	if !okIdent || !s.aliases[s.info.Uses[id]] {
		return false, false
	}
	return be.Op == token.EQL, true
}

// walkBranches handles switch/type-switch/select clause bodies.
func (s *arenaSim) walkBranches(st ast.Stmt, state arenaState) (arenaState, bool) {
	var bodies [][]ast.Stmt
	var hasDefault bool
	collect := func(list []ast.Stmt) {
		for _, c := range list {
			switch c := c.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, c.Body)
				if c.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				bodies = append(bodies, c.Body)
				if c.Comm == nil {
					hasDefault = true
				}
			}
		}
	}
	switch st := st.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			state, _ = s.walkStmt(st.Init, state)
		}
		collect(st.Body.List)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			state, _ = s.walkStmt(st.Init, state)
		}
		collect(st.Body.List)
	case *ast.SelectStmt:
		collect(st.Body.List)
	}
	out := statePre
	sawOpen := false
	allTerm := len(bodies) > 0
	for _, b := range bodies {
		branchOut, term := s.walkStmts(b, state)
		if !term {
			allTerm = false
			if !sawOpen {
				out, sawOpen = branchOut, true
			} else {
				out = mergeStates(out, branchOut)
			}
		}
	}
	if !hasDefault {
		// The no-match path skips every body.
		allTerm = false
		if !sawOpen {
			out, sawOpen = state, true
		} else {
			out = mergeStates(out, state)
		}
	}
	if allTerm {
		return state, true
	}
	return out, false
}

// stmtPuts reports whether the statement (function literals included)
// puts a tracked variable back.
func (s *arenaSim) stmtPuts(st ast.Stmt) bool {
	return containsPut(s.info, st, s.aliases)
}

func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && isBuiltin(info, id)
}

// isBuiltin reports whether id resolves to a language builtin (or to
// nothing at all, which only happens for builtins under partial info).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	obj, ok := info.Uses[id]
	if !ok || obj == nil {
		return true
	}
	_, builtin := obj.(*types.Builtin)
	return builtin
}

func nodeContains(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
