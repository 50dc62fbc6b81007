package hyperplonk

import (
	"context"
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// Config controls the prover.
type Config struct {
	// Workers is the worker budget for the whole proof — wire commitments,
	// permutation construction, SumCheck scans, batch evaluations, and PCS
	// openings all share it. 0 = GOMAXPROCS.
	Workers int
	// Sequential is ignored: Prove has a single schedule, the strict
	// five-step order. The field remains so existing callers that set it
	// (perfbench/layers.go) keep compiling.
	Sequential bool
	// MemoryBudget, when positive, marks a bounded-memory session
	// (DESIGN.md §8): the wire commitments run one at a time instead of
	// concurrently, so only one MSM streams its basis chunks through arena
	// scratch against the session's offloaded SRS. It is also the only way
	// to prove from a spilled index (PreprocessSpilled). The proof bytes
	// are identical at every budget.
	MemoryBudget int64
}

// stepHook, when non-nil, runs at each protocol step boundary (steps 1–5)
// after the cancellation check. Tests use it to land a cancel inside a
// chosen step; it is nil in production.
var stepHook func(step int)

// Prove generates a HyperPlonk proof that the circuit is satisfied by its
// embedded witness. The five protocol steps run in order, each finishing
// before the next starts; within a step every kernel spends the one worker
// budget. Cancelling ctx aborts the prover promptly — step boundaries plus
// mid-kernel polls inside the MSM and SumCheck scans — and Prove then
// returns ctx.Err(); a nil ctx never cancels. Prove only reads srs, idx and
// c, so many proofs of the same index may run concurrently.
func Prove(ctx context.Context, srs *pcs.SRS, idx *Index, c *gates.Circuit, cfg Config) (*Proof, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.NumVars != idx.NumVars {
		return nil, fmt.Errorf("hyperplonk: circuit/index size mismatch")
	}
	if cfg.MemoryBudget <= 0 && idx.SigmaSpill != nil && idx.SigmaTabs == nil {
		return nil, fmt.Errorf("hyperplonk: index is spilled to disk; prove with a memory budget (Config.MemoryBudget)")
	}
	proof, err := prove(ctx, srs, idx, c, cfg)
	if err != nil && ctx.Err() != nil {
		// Report a cancellation as such, not as the kernel error it
		// surfaced through.
		return nil, ctx.Err()
	}
	return proof, err
}

// prove runs the five protocol steps. The spilled σ tables (if any) load
// from disk only for the steps that read them — the argument build, the
// batch evaluations, and the main opening — and each copy drops when its
// step ends; for an in-core index loadSigmas returns the resident tables.
func prove(ctx context.Context, srs *pcs.SRS, idx *Index, c *gates.Circuit, cfg Config) (*Proof, error) {
	tr := newTranscript(idx)
	proof := &Proof{}
	workers := parallel.Workers(cfg.Workers)
	scCfg := sumcheck.Config{Workers: workers}
	step := func(n int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stepHook != nil {
			stepHook(n)
		}
		return nil
	}

	// ---- Step 1: Witness commitments (Sparse MSMs in hardware). ----
	// The per-wire MSMs are independent; run them concurrently, dividing the
	// budget so the step uses ~workers goroutines overall — or one at a time
	// under a memory budget. Commitments are appended to the transcript in
	// wire order afterwards.
	if err := step(1); err != nil {
		return nil, err
	}
	inFlight := workers
	if cfg.MemoryBudget > 0 {
		inFlight = 1
	}
	proof.WireComms = make([]pcs.Commitment, len(c.Wires))
	wireErrs := make([]error, len(c.Wires))
	perWire := parallel.Split(workers, min(inFlight, len(c.Wires)))
	parallel.Run(inFlight, len(c.Wires), func(j int) {
		proof.WireComms[j], wireErrs[j] = srs.CommitCtx(ctx, c.Wires[j], perWire)
	})
	for j, err := range wireErrs {
		if err != nil {
			return nil, fmt.Errorf("hyperplonk: wire %d commit: %w", j, err)
		}
	}
	for _, comm := range proof.WireComms {
		appendComm(tr, "wire", comm)
	}

	// ---- Step 2: Gate Identity (ZeroCheck). ----
	if err := step(2); err != nil {
		return nil, err
	}
	gate := idx.Gate
	gateTabs, err := bindGateTables(gate, idx, c.Wires)
	if err != nil {
		return nil, err
	}
	gateAssign, err := sumcheck.NewAssignment(gate, gateTabs)
	if err != nil {
		return nil, err
	}
	gateZC, rGate, err := sumcheck.ProveZeroCtx(ctx, tr, gateAssign, scCfg)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: gate zerocheck: %w", err)
	}
	proof.GateZC = gateZC
	// Batch evaluation claims at the gate point: every gate constituent
	// except the trailing eq (which the verifier computes itself).
	proof.GateEvals = append([]ff.Element(nil), gateZC.Inner.FinalEvals[:gate.NumVars()]...)
	tr.AppendScalars("gate/evals", proof.GateEvals)

	// ---- Step 3: Wire Identity (PermCheck). ----
	if err := step(3); err != nil {
		return nil, err
	}
	beta := tr.ChallengeScalar("perm/beta")
	gamma := tr.ChallengeScalar("perm/gamma")
	sigmas, err := loadSigmas(ctx, idx)
	if err != nil {
		return nil, err
	}
	arg := perm.BuildWorkers(c.Wires, sigmas, beta, gamma, workers)
	vComm, err := srs.CommitCtx(ctx, arg.V, workers)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: product-tree commit: %w", err)
	}
	proof.VComm = vComm
	appendComm(tr, "perm/v", vComm)
	alpha := tr.ChallengeScalar("perm/alpha")

	permComp, permTabs := buildPermCheck(idx.Wires, alpha, arg)
	permAssign, err := sumcheck.NewAssignment(permComp, permTabs)
	if err != nil {
		return nil, err
	}
	// The (2k+4)·N check tables are the proof's peak residency. Once the
	// SumCheck's first fold materializes its half-size working tables it
	// never reads them again, so free them mid-SumCheck: steps 4–5 evaluate
	// and open only V, which the drop preserves.
	permCfg := scCfg
	permCfg.ReleaseSources = func() {
		arg.DropCheckTables()
		clear(permTabs)
	}
	permZC, rPerm, err := sumcheck.ProveZeroCtx(ctx, tr, permAssign, permCfg)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: perm zerocheck: %w", err)
	}
	proof.PermZC = permZC
	arg.DropCheckTables()

	// ---- Step 4: Batch Evaluations (Multifunction Forest in hardware). ----
	// All 4 + 2k evaluations are independent; run them concurrently with the
	// budget divided among them. Transcript appends keep the fixed order
	// below.
	if err := step(4); err != nil {
		return nil, err
	}
	piPt, p1Pt, p2Pt, phiPt := perm.ViewPoints(rPerm)
	if sigmas, err = loadSigmas(ctx, idx); err != nil {
		return nil, err
	}
	proof.WirePermEvals = make([]ff.Element, idx.Wires)
	proof.SigmaPermEvals = make([]ff.Element, idx.Wires)
	type evalJob struct {
		dst *ff.Element
		tab *mle.Table
		pt  []ff.Element
	}
	jobs := []evalJob{
		{&proof.VEvals[0], arg.V, piPt},
		{&proof.VEvals[1], arg.V, p1Pt},
		{&proof.VEvals[2], arg.V, p2Pt},
		{&proof.VEvals[3], arg.V, phiPt},
	}
	for j := 0; j < idx.Wires; j++ {
		jobs = append(jobs,
			evalJob{&proof.WirePermEvals[j], c.Wires[j], rPerm},
			evalJob{&proof.SigmaPermEvals[j], sigmas[j], rPerm})
	}
	perEval := parallel.Split(workers, len(jobs))
	parallel.Run(workers, len(jobs), func(i int) {
		*jobs[i].dst = jobs[i].tab.EvaluateWorkers(jobs[i].pt, perEval)
	})
	tr.AppendScalars("perm/vevals", proof.VEvals[:])
	tr.AppendScalars("perm/wevals", proof.WirePermEvals)
	tr.AppendScalars("perm/sevals", proof.SigmaPermEvals)

	// ---- Step 5: Polynomial Opening (OpenCheck + batched PCS opening). ----
	if err := step(5); err != nil {
		return nil, err
	}
	if sigmas, err = loadSigmas(ctx, idx); err != nil {
		return nil, err
	}
	mainPolys := openingPolys(idx, c.Wires, sigmas)
	mainClaims := mainClaimList(idx, proof, rGate, rPerm)
	mainPoints := []openPoint{{name: "gate", coords: rGate}, {name: "perm", coords: rPerm}}
	if proof.OpenMain, err = proveOpenCheck(ctx, tr, srs, "open/main", mainPolys, mainClaims, mainPoints, scCfg); err != nil {
		return nil, err
	}

	vClaims := []evalClaim{
		{Poly: 0, Point: 0, Value: proof.VEvals[0]},
		{Poly: 0, Point: 1, Value: proof.VEvals[1]},
		{Poly: 0, Point: 2, Value: proof.VEvals[2]},
		{Poly: 0, Point: 3, Value: proof.VEvals[3]},
	}
	vPoints := []openPoint{
		{name: "pi", coords: piPt},
		{name: "p1", coords: p1Pt},
		{name: "p2", coords: p2Pt},
		{name: "phi", coords: phiPt},
	}
	if proof.OpenV, err = proveOpenCheck(ctx, tr, srs, "open/v", []*mle.Table{arg.V}, vClaims, vPoints, scCfg); err != nil {
		return nil, err
	}
	return proof, nil
}

// loadSigmas returns the σ tables for one protocol step: the resident ones
// when the index is in-core, a freshly loaded copy from the spill store when
// it is spilled. Callers drop the returned slice when the step ends; the
// table values are identical either way (the spill codec round-trips raw
// Montgomery limbs), so the choice cannot affect proof bytes.
func loadSigmas(ctx context.Context, idx *Index) ([]*mle.Table, error) {
	if idx.SigmaTabs != nil {
		return idx.SigmaTabs, nil
	}
	if idx.SigmaSpill == nil {
		return nil, fmt.Errorf("hyperplonk: index has neither resident nor spilled σ tables")
	}
	tabs := make([]*mle.Table, len(idx.SigmaSpill))
	for i, h := range idx.SigmaSpill {
		t, err := h.Load(ctx)
		if err != nil {
			return nil, fmt.Errorf("hyperplonk: reload σ_%d: %w", i+1, err)
		}
		tabs[i] = t
	}
	return tabs, nil
}

// --- shared helpers (used by both prover and verifier) ---

func newTranscript(idx *Index) *transcript.Transcript {
	tr := transcript.New("hyperplonk")
	tr.AppendUint64("numvars", uint64(idx.NumVars))
	tr.AppendUint64("wires", uint64(idx.Wires))
	for i, cm := range idx.SelectorComms {
		tr.AppendBytes("selector/"+idx.SelectorNames[i], commBytes(cm))
	}
	for _, cm := range idx.SigmaComms {
		tr.AppendBytes("sigma", commBytes(cm))
	}
	return tr
}

func commBytes(c pcs.Commitment) []byte {
	if c.Point.Infinity {
		return []byte{0}
	}
	xb := c.Point.X.Bytes()
	yb := c.Point.Y.Bytes()
	return append(xb[:], yb[:]...)
}

func appendComm(tr *transcript.Transcript, label string, c pcs.Commitment) {
	tr.AppendBytes(label, commBytes(c))
}

// bindGateTables maps the gate composite's variable names to circuit tables.
func bindGateTables(gate *poly.Composite, idx *Index, wires []*mle.Table) ([]*mle.Table, error) {
	tabs := make([]*mle.Table, gate.NumVars())
	for i, name := range gate.VarNames {
		if si := indexOf(idx.SelectorNames, name); si >= 0 {
			tabs[i] = idx.SelectorTabs[si]
			continue
		}
		var w int
		if _, err := fmt.Sscanf(name, "w%d", &w); err == nil && w >= 1 && w <= len(wires) {
			tabs[i] = wires[w-1]
			continue
		}
		return nil, fmt.Errorf("hyperplonk: gate variable %q has no bound table", name)
	}
	return tabs, nil
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// buildPermCheck returns the PermCheck composite (without eq wrapping; the
// ZeroCheck adds it) and its bound tables, in the composite's variable order.
func buildPermCheck(k int, alpha ff.Element, arg *perm.Argument) (*poly.Composite, []*mle.Table) {
	comp := permCheckCore(k, alpha)
	tabs := make([]*mle.Table, comp.NumVars())
	for i, name := range comp.VarNames {
		switch name {
		case "pi":
			tabs[i] = arg.Pi
		case "p1":
			tabs[i] = arg.P1
		case "p2":
			tabs[i] = arg.P2
		case "phi":
			tabs[i] = arg.Phi
		default:
			var j int
			if _, err := fmt.Sscanf(name, "D%d", &j); err == nil {
				tabs[i] = arg.DTabs[j-1]
				continue
			}
			if _, err := fmt.Sscanf(name, "N%d", &j); err == nil {
				tabs[i] = arg.NTabs[j-1]
				continue
			}
			panic("hyperplonk: unexpected permcheck variable " + name)
		}
	}
	return comp, tabs
}

// permCheckCore is Table I poly 21/23 WITHOUT the trailing eq factor
// (ProveZero wraps it).
func permCheckCore(k int, alpha ff.Element) *poly.Composite {
	full := poly.VanillaPermCheck(alpha)
	if k == 5 {
		full = poly.JellyfishPermCheck(alpha)
	} else if k != 3 {
		full = genericPermCheck(k, alpha)
	}
	return stripEq(full)
}

func genericPermCheck(k int, alpha ff.Element) *poly.Composite {
	// Reuse the registry construction path for arbitrary wire counts.
	return poly.PermCheckK(k, alpha)
}

// stripEq removes the trailing fr factor from a registry PermCheck
// composite, returning the bare constraint.
func stripEq(c *poly.Composite) *poly.Composite {
	eqIdx := c.VarIndex("fr")
	if eqIdx < 0 {
		return c
	}
	out := &poly.Composite{Name: c.Name + "/core", ID: -1}
	// Keep all variables except fr; remap indices.
	remap := make([]int, len(c.VarNames))
	for i, n := range c.VarNames {
		if i == eqIdx {
			remap[i] = -1
			continue
		}
		remap[i] = len(out.VarNames)
		out.VarNames = append(out.VarNames, n)
		out.Roles = append(out.Roles, c.Roles[i])
	}
	for _, t := range c.Terms {
		nt := poly.Term{Coeff: t.Coeff}
		for _, f := range t.Factors {
			if f.Var == eqIdx {
				continue
			}
			nt.Factors = append(nt.Factors, poly.Factor{Var: remap[f.Var], Power: f.Power})
		}
		out.Terms = append(out.Terms, nt)
	}
	return out
}

// openingPolys lists the distinct µ-variable committed polynomials in the
// opening order: selectors, wires, sigmas (openingComms is the verifier's
// matching commitment list).
func openingPolys(idx *Index, wires, sigmas []*mle.Table) []*mle.Table {
	tabs := make([]*mle.Table, 0, len(idx.SelectorTabs)+len(wires)+len(sigmas))
	tabs = append(tabs, idx.SelectorTabs...)
	tabs = append(tabs, wires...)
	return append(tabs, sigmas...)
}

func openingComms(idx *Index, proof *Proof) []pcs.Commitment {
	var comms []pcs.Commitment
	comms = append(comms, idx.SelectorComms...)
	comms = append(comms, proof.WireComms...)
	comms = append(comms, idx.SigmaComms...)
	return comms
}

// evalClaim says: distinct polynomial Poly evaluates to Value at point
// index Point.
type evalClaim struct {
	Poly  int
	Point int
	Value ff.Element
}

type openPoint struct {
	name   string
	coords []ff.Element
}

// mainClaimList orders the OpenCheck claims deterministically: selectors at
// the gate point, wires at both points, sigmas at the perm point.
func mainClaimList(idx *Index, proof *Proof, rGate, rPerm []ff.Element) []evalClaim {
	gate := idx.Gate
	numSel := len(idx.SelectorNames)
	var claims []evalClaim
	// Gate-point claims come from GateEvals, which follow the gate
	// composite's variable order; map them onto the opening set order.
	for gi, name := range gate.VarNames {
		if si := indexOf(idx.SelectorNames, name); si >= 0 {
			claims = append(claims, evalClaim{Poly: si, Point: 0, Value: proof.GateEvals[gi]})
			continue
		}
		var w int
		if _, err := fmt.Sscanf(name, "w%d", &w); err == nil && w >= 1 && w <= idx.Wires {
			claims = append(claims, evalClaim{Poly: numSel + w - 1, Point: 0, Value: proof.GateEvals[gi]})
		}
	}
	// Perm-point claims.
	for j := 0; j < idx.Wires; j++ {
		claims = append(claims, evalClaim{Poly: numSel + j, Point: 1, Value: proof.WirePermEvals[j]})
		claims = append(claims, evalClaim{Poly: numSel + idx.Wires + j, Point: 1, Value: proof.SigmaPermEvals[j]})
	}
	return claims
}
