package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/hyperplonk"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// hyperplonkLayers measures the proof's five protocol steps and the
// kernels inside them. It proves the circuit once with the sequential
// schedule and once on one worker, then replays each step on the proof's
// own tables (wires, selectors, σ, the product tree V) with the layers'
// public kernels and challenges drawn from a seeded transcript. Kernel
// cost does not depend on challenge values, so the replay does the same
// work as the prover's steps; whatever the steps do not cover is reported
// as hyperplonk.unattributed_s.
func hyperplonkLayers(cfg config, prog vanillaProgram, srs *pcs.SRS, rec *Recorder, m map[string]float64) error {
	logGates := cfg.sz.proveLogGates
	workers := runtime.NumCPU()
	circ, err := prog.circuit(logGates)
	if err != nil {
		return err
	}
	idx, err := hyperplonk.PreprocessWorkers(srs, circ, workers)
	if err != nil {
		return err
	}
	ctx := context.Background()
	seq := rec.Time("hyperplonk.prove_sequential", 0, 0, func(int) {
		_, err = hyperplonk.Prove(ctx, srs, idx, circ, hyperplonk.Config{Workers: workers, Sequential: true})
	})
	if err != nil {
		return fmt.Errorf("sequential prove: %w", err)
	}
	w1 := rec.Time("hyperplonk.prove_w1", 0, 0, func(int) {
		_, err = hyperplonk.Prove(ctx, srs, idx, circ, hyperplonk.Config{Workers: 1})
	})
	if err != nil {
		return fmt.Errorf("one-worker prove: %w", err)
	}
	m["hyperplonk.prove_sequential_s"] = seq.Seconds()
	m["hyperplonk.prove_w1_s"] = w1.Seconds()
	if p := m["zkphire.prove_s"]; p > 0 {
		m["parallel.efficiency"] = w1.Seconds() / (float64(workers) * p)
	}

	r := stepReplay{srs: srs, idx: idx, wires: circ.Wires, rec: rec, workers: workers,
		tr: transcript.New("perfbench/" + strconv.FormatInt(cfg.seed, 10))}
	steps := []struct {
		name string
		fn   func(parent int) error
	}{
		{"hyperplonk.step1_witness_commit", r.witnessCommit},
		{"hyperplonk.step2_gate_identity", r.gateIdentity},
		{"hyperplonk.step3_wire_identity", r.wireIdentity},
		{"hyperplonk.step4_batch_eval", r.batchEval},
		{"hyperplonk.step5_opening", r.opening},
	}
	var stepSum time.Duration
	for _, st := range steps {
		var serr error
		d := rec.Time(st.name, 0, 0, func(id int) { serr = st.fn(id) })
		if serr != nil {
			return fmt.Errorf("%s: %w", st.name, serr)
		}
		m[st.name+"_s"] = d.Seconds()
		stepSum += d
	}
	m["hyperplonk.unattributed_s"] = (seq - stepSum).Seconds()

	spans := rec.Spans()
	m["pcs.commit_dense_s"] = median(durations(spans, "pcs.commit_dense"))
	m["pcs.open_s"] = median(durations(spans, "pcs.open"))
	m["pcs.commits"] = float64(len(durations(spans, "pcs.commit_dense")))
	m["pcs.opens"] = float64(len(durations(spans, "pcs.open")))
	m["perm.build_s"] = median(durations(spans, "perm.build"))

	// A selector commitment is the sparse (0/1) case.
	qm := idx.SelectorTabs[indexOf(idx.SelectorNames, "qM")]
	m["pcs.commit_sparse_s"] = medianOf(5, func() { _, _ = srs.CommitWorkers(qm, workers) })

	// MSM of the dense basis, and the operation counts of one proof. The
	// counts are computed from the protocol's shapes, not measured: three
	// wire and one product-tree commitment, and the quotient MSMs of the
	// two openings (2^k − 1 points for a k-variable table).
	n := 1 << logGates
	scalars := denseElements(newRand(cfg.seed, streamChallenges), n)
	endo := srs.EndoPoints(logGates, workers)
	msm := medianOf(3, func() { curve.MSMEndoWorkers(srs.Levels[logGates], endo, scalars, workers) })
	points := 3*n + 2*n + (n - 1) + (2*n - 1)
	m["curve.msm_s"] = msm
	m["curve.msm_ns_per_point"] = msm * 1e9 / float64(n)
	m["curve.msm_points"] = float64(points)
	m["curve.msm_bytes_computed"] = float64(points) * (2*fp.Bytes + ff.Bytes)
	m["curve.model_vs_measured"] = cpumodel.PaperCPU(workers).MSMSeconds(float64(n), 0) / msm
	return nil
}

// stepReplay carries the tables and transcript through the five steps.
type stepReplay struct {
	srs     *pcs.SRS
	idx     *hyperplonk.Index
	wires   []*mle.Table
	rec     *Recorder
	workers int
	tr      *transcript.Transcript

	gateVals, wirePermVals, sigmaPermVals, vVals []ff.Element
	rGate, rPerm                                 []ff.Element
	arg                                          *perm.Argument
}

func (r *stepReplay) commit(parent int, t *mle.Table, workers int) (err error) {
	r.rec.Time("pcs.commit_dense", parent, 0, func(int) { _, err = r.srs.CommitWorkers(t, workers) })
	return err
}

// witnessCommit commits the wires concurrently, splitting the worker
// budget among them, as the prover's step 1 does.
func (r *stepReplay) witnessCommit(parent int) error {
	errs := make([]error, len(r.wires))
	per := parallel.Split(r.workers, len(r.wires))
	parallel.Run(r.workers, len(r.wires), func(j int) { errs[j] = r.commit(parent, r.wires[j], per) })
	return errors.Join(errs...)
}

func (r *stepReplay) zeroCheck(parent int, c *poly.Composite, tabs []*mle.Table) (*sumcheck.ZeroCheckProof, []ff.Element, error) {
	a, err := sumcheck.NewAssignment(c, tabs)
	if err != nil {
		return nil, nil, err
	}
	var (
		zc *sumcheck.ZeroCheckProof
		pt []ff.Element
	)
	r.rec.Time("sumcheck.prove_zero", parent, 0, func(int) {
		zc, pt, err = sumcheck.ProveZero(r.tr, a, sumcheck.Config{Workers: r.workers})
	})
	return zc, pt, err
}

func (r *stepReplay) gateIdentity(parent int) error {
	gate := r.idx.Gate
	tabs := make([]*mle.Table, gate.NumVars())
	for i, name := range gate.VarNames {
		if si := indexOf(r.idx.SelectorNames, name); si >= 0 {
			tabs[i] = r.idx.SelectorTabs[si]
			continue
		}
		w, err := strconv.Atoi(strings.TrimPrefix(name, "w"))
		if err != nil || w < 1 || w > len(r.wires) {
			return fmt.Errorf("gate variable %q has no table", name)
		}
		tabs[i] = r.wires[w-1]
	}
	zc, pt, err := r.zeroCheck(parent, gate, tabs)
	if err != nil {
		return err
	}
	r.rGate = pt
	r.gateVals = zc.Inner.FinalEvals[:gate.NumVars()]
	return nil
}

func (r *stepReplay) wireIdentity(parent int) error {
	beta := r.tr.ChallengeScalar("perm/beta")
	gamma := r.tr.ChallengeScalar("perm/gamma")
	r.rec.Time("perm.build", parent, 0, func(int) {
		r.arg = perm.BuildWorkers(r.wires, r.idx.SigmaTabs, beta, gamma, r.workers)
	})
	if err := r.commit(parent, r.arg.V, r.workers); err != nil {
		return err
	}
	alpha := r.tr.ChallengeScalar("perm/alpha")
	c, tabs, err := permCheck(r.idx.Wires, alpha, r.arg)
	if err != nil {
		return err
	}
	_, pt, err := r.zeroCheck(parent, c, tabs)
	r.rPerm = pt
	return err
}

// permCheck is the Wire Identity constraint (Table I poly 21/23) without
// its eq factor, bound to the permutation argument's tables.
func permCheck(k int, alpha ff.Element, arg *perm.Argument) (*poly.Composite, []*mle.Table, error) {
	full := poly.PermCheckK(k, alpha)
	eq := full.VarIndex("fr")
	c := &poly.Composite{Name: full.Name + "/core", ID: -1}
	remap := make([]int, len(full.VarNames))
	var tabs []*mle.Table
	for i, name := range full.VarNames {
		remap[i] = -1
		if i == eq {
			continue
		}
		remap[i] = len(c.VarNames)
		c.VarNames = append(c.VarNames, name)
		c.Roles = append(c.Roles, full.Roles[i])
		var t *mle.Table
		switch {
		case name == "pi":
			t = arg.Pi
		case name == "p1":
			t = arg.P1
		case name == "p2":
			t = arg.P2
		case name == "phi":
			t = arg.Phi
		case strings.HasPrefix(name, "D"), strings.HasPrefix(name, "N"):
			j, err := strconv.Atoi(name[1:])
			if err != nil || j < 1 || j > k {
				return nil, nil, fmt.Errorf("permcheck variable %q", name)
			}
			if name[0] == 'D' {
				t = arg.DTabs[j-1]
			} else {
				t = arg.NTabs[j-1]
			}
		default:
			return nil, nil, fmt.Errorf("permcheck variable %q", name)
		}
		tabs = append(tabs, t)
	}
	for _, t := range full.Terms {
		nt := poly.Term{Coeff: t.Coeff}
		for _, f := range t.Factors {
			if f.Var != eq {
				nt.Factors = append(nt.Factors, poly.Factor{Var: remap[f.Var], Power: f.Power})
			}
		}
		c.Terms = append(c.Terms, nt)
	}
	return c, tabs, nil
}

// batchEval runs the 4 + 2k evaluations concurrently, splitting the
// worker budget among them, as the prover's step 4 does.
func (r *stepReplay) batchEval(parent int) error {
	k := len(r.wires)
	r.vVals = make([]ff.Element, 4)
	r.wirePermVals = make([]ff.Element, k)
	r.sigmaPermVals = make([]ff.Element, k)
	type evalJob struct {
		dst *ff.Element
		tab *mle.Table
		pt  []ff.Element
	}
	var jobs []evalJob
	pi, p1, p2, phi := perm.ViewPoints(r.rPerm)
	for i, pt := range [][]ff.Element{pi, p1, p2, phi} {
		jobs = append(jobs, evalJob{&r.vVals[i], r.arg.V, pt})
	}
	for j, w := range r.wires {
		jobs = append(jobs,
			evalJob{&r.wirePermVals[j], w, r.rPerm},
			evalJob{&r.sigmaPermVals[j], r.idx.SigmaTabs[j], r.rPerm})
	}
	per := parallel.Split(r.workers, len(jobs))
	parallel.Run(r.workers, len(jobs), func(i int) {
		r.rec.Time("mle.evaluate", parent, 0, func(int) { *jobs[i].dst = jobs[i].tab.EvaluateWorkers(jobs[i].pt, per) })
	})
	return nil
}

// claim says polynomial poly takes value val at point pt.
type claim struct {
	poly, pt int
	val      ff.Element
}

func (r *stepReplay) opening(parent int) error {
	// Main opening: selectors at the gate point, wires at both points,
	// σ at the perm point.
	gate := r.idx.Gate
	sel := len(r.idx.SelectorNames)
	polys := append(append(append([]*mle.Table(nil), r.idx.SelectorTabs...), r.wires...), r.idx.SigmaTabs...)
	var claims []claim
	for gi, name := range gate.VarNames {
		if si := indexOf(r.idx.SelectorNames, name); si >= 0 {
			claims = append(claims, claim{si, 0, r.gateVals[gi]})
		} else if w, err := strconv.Atoi(strings.TrimPrefix(name, "w")); err == nil {
			claims = append(claims, claim{sel + w - 1, 0, r.gateVals[gi]})
		}
	}
	for j := range r.wires {
		claims = append(claims, claim{sel + j, 1, r.wirePermVals[j]})
		claims = append(claims, claim{sel + len(r.wires) + j, 1, r.sigmaPermVals[j]})
	}
	if err := r.openCheck(parent, polys, claims, [][]ff.Element{r.rGate, r.rPerm}); err != nil {
		return err
	}
	pi, p1, p2, phi := perm.ViewPoints(r.rPerm)
	var vClaims []claim
	for i, v := range r.vVals {
		vClaims = append(vClaims, claim{0, i, v})
	}
	return r.openCheck(parent, []*mle.Table{r.arg.V}, vClaims, [][]ff.Element{pi, p1, p2, phi})
}

// openCheck reduces the claims to one point with a SumCheck over
// Σ_k α^k·f_{p_k}(X)·eq(X, z_k) (Table I poly 24), then opens the
// β-combination of the polynomials there with one batched PCS opening.
func (r *stepReplay) openCheck(parent int, polys []*mle.Table, claims []claim, points [][]ff.Element) error {
	alpha := r.tr.ChallengeScalar("open/alpha")
	c := &poly.Composite{Name: "OpenCheck", ID: 24}
	tabs := append([]*mle.Table(nil), polys...)
	for i := range polys {
		c.VarNames = append(c.VarNames, "f"+strconv.Itoa(i))
		c.Roles = append(c.Roles, poly.RoleDense)
	}
	for i, pt := range points {
		c.VarNames = append(c.VarNames, "eq"+strconv.Itoa(i))
		c.Roles = append(c.Roles, poly.RoleEq)
		r.rec.Time("mle.eq", parent, 0, func(int) { tabs = append(tabs, mle.EqWorkers(pt, r.workers)) })
	}
	coeff := ff.One()
	var total, t ff.Element
	for _, cl := range claims {
		c.Terms = append(c.Terms, poly.Term{Coeff: coeff, Factors: []poly.Factor{{Var: cl.poly, Power: 1}, {Var: len(polys) + cl.pt, Power: 1}}})
		t.Mul(&coeff, &cl.val)
		total.Add(&total, &t)
		coeff.Mul(&coeff, &alpha)
	}
	a, err := sumcheck.NewAssignment(c, tabs)
	if err != nil {
		return err
	}
	var rStar []ff.Element
	r.rec.Time("sumcheck.prove", parent, 0, func(int) {
		_, rStar, err = sumcheck.Prove(r.tr, a, total, sumcheck.Config{Workers: r.workers})
	})
	if err != nil {
		return err
	}
	beta := r.tr.ChallengeScalar("open/beta")
	coeffs := make([]ff.Element, len(polys))
	coeffs[0] = ff.One()
	for i := 1; i < len(coeffs); i++ {
		coeffs[i].Mul(&coeffs[i-1], &beta)
	}
	r.rec.Time("pcs.open", parent, 0, func(int) {
		var comb *mle.Table
		if comb, err = pcs.CombineTablesWorkers(polys, coeffs, r.workers); err == nil {
			_, _, err = r.srs.OpenWorkers(comb, rStar, r.workers)
		}
	})
	return err
}

// fieldLayers times chained multiplications in the scalar field (ff) and
// the curve's base field (fp), as cpumodel.Calibrate does.
func fieldLayers(m map[string]float64) {
	const iters = 1 << 20
	m["ff.ns_per_mul"] = medianOf(5, func() {
		a, b := ff.NewElement(0x1234567), ff.NewElement(0x89abcdef)
		a.Mul(&a, &denseK1)
		for i := 0; i < iters; i++ {
			a.Mul(&a, &b)
		}
		sinkFF = a
	}) * 1e9 / iters
	m["fp.ns_per_mul"] = medianOf(5, func() {
		var a, b fp.Element
		a.SetUint64(0x1234567)
		b.SetUint64(0x89abcdef)
		a.Mul(&a, &b)
		for i := 0; i < iters; i++ {
			a.Mul(&a, &b)
		}
		sinkFP = a
	}) * 1e9 / iters
}

var (
	sinkFF ff.Element
	sinkFP fp.Element
)

// mleLayers times the multilinear-table kernels on one dense 2^logN
// table: a fold, an evaluation, and an eq-table build.
func mleLayers(seed int64, logN int, m map[string]float64) {
	workers := runtime.NumCPU()
	r := newRand(seed, streamChallenges)
	t := mle.FromEvals(denseElements(r, 1<<logN))
	pt := denseElements(r, logN)
	ch := denseElement(r)
	const reps = 5
	clones := make([]*mle.Table, reps)
	for i := range clones {
		clones[i] = t.Clone() // folding is in place
	}
	i := 0
	m["mle.fold_s"] = medianOf(reps, func() { clones[i].FoldWorkers(&ch, workers); i++ })
	m["mle.evaluate_s"] = medianOf(reps, func() { t.EvaluateWorkers(pt, workers) })
	m["mle.eq_s"] = medianOf(reps, func() { mle.EqWorkers(pt, workers) })
}

// medianOf runs fn reps times and returns its median wall time in seconds.
func medianOf(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		fn()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}
