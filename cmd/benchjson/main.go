// Command benchjson measures the prover stack's key kernels — mle.Fold,
// mle.Evaluate, perm.Build, curve.MSM, pcs.Commit, the SumCheck scan, and
// the end-to-end session Prove — with testing.Benchmark and writes the
// results as a JSON record, continuing the repo's bench trajectory
// (BENCH_pr2.json → BENCH_pr4.json → BENCH_pr5.json).
//
// Each kernel runs at worker budgets 1 and GOMAXPROCS through the shared
// internal/parallel engine. Entries carry the previous generation's serial
// numbers on the same runner as baseline_ns_per_op: the default record
// compares against BENCH_pr2.json (the pre-GLV state), and the -sumcheck
// record compares against the PR 4 numbers (the pre-fast-path scalar-field
// state).
//
//	go run ./cmd/benchjson -o BENCH_pr4.json           # full sizes (minutes)
//	go run ./cmd/benchjson -msm -o BENCH_pr4.json      # MSM 2^16–2^20 only
//	go run ./cmd/benchjson -sumcheck -o BENCH_pr5.json # scalar-field record
//	go run ./cmd/benchjson -quick -o /tmp/b.json       # CI smoke (seconds)
//
// Every kernel row also carries total_allocs and a peak-RSS gauge
// (peak_rss_bytes: VmHWM from /proc/self/status, with a runtime.MemStats
// fallback off Linux).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"zkphire"
	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/membench"
	"zkphire/internal/mle"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

type kernelResult struct {
	Name        string `json:"name"`
	Workers     int    `json:"workers"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// TotalAllocs is the benchmark's total heap allocation count across all
	// iterations — the raw counter allocs_per_op is derived from, useful when
	// comparing rows whose op counts differ.
	TotalAllocs int64 `json:"total_allocs"`
	// PeakRSSBytes is the process's high-water resident set (VmHWM from
	// /proc/self/status on Linux, runtime.ReadMemStats Sys elsewhere),
	// sampled right after the kernel's benchmark loop. It is a process-level
	// gauge: monotone across the record's rows, so the interesting signal is
	// the delta a kernel adds over the row before it.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// BaselineNsPerOp is the serial pre-engine number measured at the seed
	// commit (adf6bae) on this runner; zero when not measured (quick mode).
	BaselineNsPerOp int64   `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup_vs_baseline,omitempty"`
	// MemBudgetBytes is the memory budget the session was opened with (-mem
	// rows only; zero for the in-core reference row). For -mem rows
	// PeakRSSBytes is NOT the monotone VmHWM but the membench.Sample peak of
	// the bracketed run, so the streamed row's peak is directly comparable
	// to the in-core row's.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

type record struct {
	PR         int            `json:"pr"`
	Generated  string         `json:"generated"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Quick      bool           `json:"quick"`
	Note       string         `json:"note"`
	Kernels    []kernelResult `json:"kernels"`
}

// pr2Baselines holds the PR 2 serial timings (ns/op) recorded in
// BENCH_pr2.json on this runner — the pre-GLV state of each kernel. They are
// runner-specific; rerun the PR 2 commit's kernels to recalibrate on
// different hardware. (The seed-commit numbers, one more generation back,
// live in BENCH_pr2.json's own baseline_ns_per_op fields.)
var pr2Baselines = map[string]int64{
	"mle.Fold/2^20":             38_449_613,
	"mle.Evaluate/2^16":         5_064_108,
	"perm.Build/2^16/k=3":       70_197_009,
	"curve.MSM/2^16":            1_628_167_206,
	"curve.MSM/2^18":            5_578_695_489,
	"curve.MSM/2^20":            16_751_878_173,
	"pcs.Commit/dense/2^18":     5_136_042_630,
	"session.Prove/logGates=16": 11_726_530_498,
}

// pr4Baselines holds the PR 4 serial timings (ns/op) on this runner — the
// state of each scalar-field kernel before the SumCheck fast path (looped
// CIOS ff.Mul, tree-walk composite evaluation, appended-eq ZeroCheck, full
// d+1-point round scan). The sumcheck.Round and sumcheck.ProveZero numbers
// were measured at commit a014b1b with a one-off round benchmark; the rest
// are the serial rows of BENCH_pr4.json.
var pr4Baselines = map[string]int64{
	"sumcheck.Round/vanilla/2^16":     129_349_090,
	"sumcheck.Round/vanilla/2^18":     526_742_290,
	"sumcheck.Round/vanilla/2^20":     2_128_936_856,
	"sumcheck.ProveZero/vanilla/2^16": 326_743_222,
	"sumcheck.ProveZero/vanilla/2^18": 1_276_260_789,
	"perm.Build/2^16/k=3":             61_203_560,
	"mle.Evaluate/2^16":               4_840_794,
	"session.Prove/logGates=16":       6_787_008_120,
}

func main() {
	out := flag.String("o", "BENCH_pr4.json", "output path")
	quick := flag.Bool("quick", false, "small sizes for a CI smoke pass")
	sessions := flag.Bool("sessions", false, "only the PR 3 cold- vs cached-session prove benchmarks")
	msmOnly := flag.Bool("msm", false, "only the curve.MSM series (the GLV before/after record)")
	sumcheckOnly := flag.Bool("sumcheck", false, "the PR 5 scalar-field record: per-round SumCheck scan, eq-factorized ZeroCheck, perm.Build, mle.Evaluate, and end-to-end Prove against the PR 4 baselines")
	memMode := flag.Bool("mem", false, "the PR 8 memory record: end-to-end Prove in-core vs streamed under a half-peak memory budget, peaks sampled by internal/membench")
	memLg := flag.Int("mem-loggates", 18, "circuit size for the -mem record (quick mode overrides to 14)")
	clusterMode := flag.Bool("cluster", false, "the PR 10 distribution record: end-to-end prove throughput through an in-process coordinator + N-worker pool over the real HTTP dispatch protocol")
	flag.Parse()

	rec := &record{
		PR:         4,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Note: "baseline_ns_per_op is the PR 2 serial number recorded in " +
			"BENCH_pr2.json on the same runner (the pre-GLV Pippenger path); " +
			"speedup_vs_baseline is therefore the endomorphism + signed-digit " +
			"win. On a single-core runner the workers>1 rows show engine " +
			"overhead, not scaling.",
	}

	budgets := []int{1}
	if runtime.GOMAXPROCS(0) > 1 {
		budgets = append(budgets, runtime.GOMAXPROCS(0))
	}

	// Baselines only annotate full-size runs; quick-mode numbers are smoke
	// signals at smaller sizes and would produce nonsense speedups.
	pr2IfFull := pr2Baselines
	if *quick {
		pr2IfFull = nil
	}

	if *sessions {
		// The sessions record is the PR 3 trajectory file: don't clobber
		// the default kernel record unless the caller explicitly asked to.
		if *out == "BENCH_pr4.json" {
			*out = "BENCH_pr3.json"
		}
		rec.PR = 3
		rec.Note = "PR 3 serving-layer record: cold = NewProver (preprocessing) + " +
			"Prove per op, the session-cache-miss path; cached = Prove on a reused " +
			"session, the cache-hit path the registry serves after the first " +
			"registration (see internal/service)."
		sessionLg := 12
		if *quick {
			sessionLg = 8
		}
		benchSessions(rec, sessionLg, budgets)
		writeRecord(rec, *out)
		return
	}

	if *sumcheckOnly {
		// The scalar-field record is the PR 5 trajectory file: don't clobber
		// the committed PR 4 kernel record unless explicitly asked to (same
		// guard as -sessions and -msm above).
		if *out == "BENCH_pr4.json" {
			*out = "BENCH_pr5.json"
		}
		rec.PR = 5
		rec.Note = "PR 5 scalar-field record: baseline_ns_per_op is the PR 4 " +
			"serial number on this runner (looped CIOS ff.Mul, tree-walk " +
			"composite evaluation, appended-eq ZeroCheck, d+1-point round " +
			"scan); speedup_vs_baseline is therefore the SumCheck fast-path " +
			"win — unrolled field arithmetic, compiled straight-line " +
			"evaluation, compressed-point scan, eq factorization, and the " +
			"lazy-reduction vector kernels together."
		benchSumcheck(rec, budgets, *quick, pr4Baselines)
		writeRecord(rec, *out)
		return
	}

	if *memMode {
		// The memory record is the PR 8 trajectory file: don't clobber the
		// committed kernel records unless explicitly asked to (same guard as
		// the other modes above).
		if *out == "BENCH_pr4.json" {
			*out = "BENCH_pr8.json"
		}
		rec.PR = 8
		rec.Note = "PR 8 memory record: both rows prove the same circuit against " +
			"byte-identical synthetic SRS bases (i·G prefixes; provers never touch " +
			"the trapdoor). The incore row keeps SRS + index resident; the streamed " +
			"row opens the session with WithMemoryBudget(mem_budget_bytes) — " +
			"budget = half the sampled in-core peak minus a fixed 40 MiB non-heap " +
			"allowance — over an offloaded SRS and a spill store, under " +
			"GOMEMLIMIT=budget. peak_rss_bytes here is the membench.Sample " +
			"high-water mark of the bracketed build+prove (1 ms VmRSS poller), " +
			"not the monotone process VmHWM, so the two rows compare directly. " +
			"Acceptance: streamed peak ≤ 50% of the incore peak with identical " +
			"proof bytes (the byte check runs in-process before rows are written)."
		benchMem(rec, *memLg, *quick)
		writeRecord(rec, *out)
		return
	}

	if *clusterMode {
		// The distribution record is the PR 10 trajectory file: don't
		// clobber the committed kernel records unless explicitly asked to
		// (same guard as the other modes above).
		if *out == "BENCH_pr4.json" {
			*out = "BENCH_pr10.json"
		}
		rec.PR = 10
		rec.Note = "PR 10 distribution record: one in-process coordinator plus N " +
			"in-process worker daemons (budget 1 each) connected over the real " +
			"HTTP dispatch/complete protocol; a fixed batch of concurrent prove " +
			"jobs is pushed through the pool at each size. ns_per_op is wall " +
			"time over the batch divided by jobs — per-job latency at that pool " +
			"size; its reciprocal is the throughput-vs-workers curve. All nodes " +
			"share this process's cores, so scaling flattens at num_cpu: rows " +
			"past that measure coordination overhead (dispatch RPCs, lease " +
			"watching, completion pushes), which is the signal the record " +
			"exists to pin. peak_rss_bytes is the monotone process high-water " +
			"mark (read deltas)."
		benchCluster(rec, *quick)
		writeRecord(rec, *out)
		return
	}

	foldLg, evalLg, msmLgs, commitLg, permLg := 20, 16, []int{16, 18, 20}, 18, 16
	proveLg := 16
	if *quick {
		foldLg, evalLg, msmLgs, commitLg, permLg = 14, 12, []int{12}, 12, 12
		proveLg = 8
	}

	rng := ff.NewRand(71)

	if *msmOnly {
		// The MSM-only record holds 3 series, not the full 8: don't clobber
		// the committed full-kernel trajectory file unless the caller
		// explicitly asked to (same guard as -sessions above).
		if *out == "BENCH_pr4.json" {
			*out = "BENCH_pr4_msm.json"
		}
		points := benchPoints(1 << msmLgs[len(msmLgs)-1])
		for _, lg := range msmLgs {
			n := 1 << lg
			scalars := rng.Elements(n)
			for _, w := range budgets {
				w := w
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						curve.MSMWorkers(points[:n], scalars, w)
					}
				})
				add(rec, fmt.Sprintf("curve.MSM/2^%d", lg), w, res, pr2IfFull)
			}
		}
		writeRecord(rec, *out)
		return
	}

	// mle.Fold
	{
		base := rng.Elements(1 << foldLg)
		work := make([]ff.Element, len(base))
		r := rng.Element()
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(work, base)
					tab := mle.FromEvals(work)
					b.StartTimer()
					tab.FoldWorkers(&r, w)
				}
			})
			add(rec, fmt.Sprintf("mle.Fold/2^%d", foldLg), w, res, pr2IfFull)
		}
	}

	// mle.Evaluate
	{
		tab := mle.FromEvals(rng.Elements(1 << evalLg))
		point := rng.Elements(evalLg)
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tab.EvaluateWorkers(point, w)
				}
			})
			add(rec, fmt.Sprintf("mle.Evaluate/2^%d", evalLg), w, res, pr2IfFull)
		}
	}

	// perm.Build
	{
		k := 3
		wires := make([]*mle.Table, k)
		for j := range wires {
			wires[j] = mle.FromEvals(rng.Elements(1 << permLg))
		}
		sigma := perm.SigmaTables(perm.Identity(k, 1<<permLg), permLg)
		beta, gamma := rng.Element(), rng.Element()
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					perm.BuildWorkers(wires, sigma, beta, gamma, w)
				}
			})
			add(rec, fmt.Sprintf("perm.Build/2^%d/k=3", permLg), w, res, pr2IfFull)
		}
	}

	// curve.MSM and pcs.Commit share one point set.
	maxLg := commitLg
	for _, lg := range msmLgs {
		if lg > maxLg {
			maxLg = lg
		}
	}
	points := benchPoints(1 << maxLg)
	for _, lg := range msmLgs {
		n := 1 << lg
		scalars := rng.Elements(n)
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					curve.MSMWorkers(points[:n], scalars, w)
				}
			})
			add(rec, fmt.Sprintf("curve.MSM/2^%d", lg), w, res, pr2IfFull)
		}
	}
	{
		srs := &pcs.SRS{MaxVars: maxLg, Levels: make([][]curve.G1Affine, maxLg+1)}
		srs.Levels[commitLg] = points[:1<<commitLg]
		dense := mle.FromEvals(rng.Elements(1 << commitLg))
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := srs.CommitWorkers(dense, w); err != nil {
						b.Fatal(err)
					}
				}
			})
			add(rec, fmt.Sprintf("pcs.Commit/dense/2^%d", commitLg), w, res, pr2IfFull)
		}
	}

	// End-to-end session Prove.
	{
		log.Printf("setting up SRS for logGates=%d (one-time)", proveLg)
		srs := zkphire.SetupDeterministic(proveLg+1, 42)
		cb := zkphire.NewCircuitBuilder()
		x := cb.Secret(3)
		acc := x
		// 40000 gates at the full size — the same circuit shape the seed
		// baseline was measured on.
		gateTarget := 40000
		if *quick {
			gateTarget = (1 << proveLg) * 3 / 5
		}
		for i := 0; i < gateTarget; i++ {
			if i%2 == 0 {
				acc = cb.Mul(acc, x)
			} else {
				acc = cb.Add(acc, x)
			}
		}
		compiled, err := zkphire.Compile(cb, zkphire.WithLogGates(proveLg))
		if err != nil {
			log.Fatal(err)
		}
		for _, w := range budgets {
			prover, err := zkphire.NewProver(srs, compiled, zkphire.WithWorkers(w))
			if err != nil {
				log.Fatal(err)
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := prover.Prove(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
			})
			add(rec, fmt.Sprintf("session.Prove/logGates=%d", proveLg), w, res, pr2IfFull)
		}
	}

	writeRecord(rec, *out)
}

// buildRoleTables materializes constituent tables matching the composite's
// roles (selectors 0/1, witnesses sparse, eq a proper eq table, dense
// random), mirroring the SumCheck test harness so the record measures the
// same value distributions the protocol sees.
func buildRoleTables(c *poly.Composite, numVars int, rng *ff.Rand) []*mle.Table {
	n := 1 << uint(numVars)
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		switch c.Roles[i] {
		case poly.RoleSelector:
			evals := make([]ff.Element, n)
			for j := range evals {
				if rng.Intn(2) == 1 {
					evals[j] = ff.One()
				}
			}
			tables[i] = mle.FromEvals(evals)
		case poly.RoleWitness:
			tables[i] = mle.FromEvals(rng.SparseElements(n, 0.1))
		case poly.RoleEq:
			tables[i] = mle.Eq(rng.Elements(numVars))
		default:
			tables[i] = mle.FromEvals(rng.Elements(n))
		}
	}
	return tables
}

// benchSumcheck measures the scalar-field side of the prover: the
// compressed round-polynomial scan (on the appended-eq assignment shape the
// PR 4 baseline was captured on), the full eq-factorized ZeroCheck prover,
// perm.Build, mle.Evaluate, and the end-to-end session Prove. Rows annotate against the given baseline generation.
func benchSumcheck(rec *record, budgets []int, quick bool, baselines map[string]int64) {
	roundLgs, proveLgs := []int{16, 18, 20}, []int{16, 18}
	permLg, evalLg, e2eLg := 16, 16, 16
	if quick {
		roundLgs, proveLgs = []int{12}, []int{12}
		permLg, evalLg, e2eLg = 12, 12, 8
	}
	gate := poly.VanillaGate()

	// sumcheck.Round: one compressed round polynomial over the wrapped
	// (gate × eq) assignment — the dominant per-round kernel.
	for _, lg := range roundLgs {
		rng := ff.NewRand(1)
		tabs := buildRoleTables(gate, lg, rng)
		base, err := sumcheck.NewAssignment(gate, tabs)
		if err != nil {
			log.Fatal(err)
		}
		tau := rng.Elements(lg)
		wrapped, _ := sumcheck.BuildZeroCheckAssignment(base, tau, 0)
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sumcheck.RoundPolynomial(wrapped, w)
				}
			})
			add(rec, fmt.Sprintf("sumcheck.Round/vanilla/2^%d", lg), w, res, baselines)
		}
	}

	// sumcheck.ProveZero: the full eq-factorized ZeroCheck prover, all µ
	// rounds including folds and transcript traffic.
	for _, lg := range proveLgs {
		rng := ff.NewRand(1)
		tabs := buildRoleTables(gate, lg, rng)
		base, err := sumcheck.NewAssignment(gate, tabs)
		if err != nil {
			log.Fatal(err)
		}
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr := transcript.New("bench")
					if _, _, err := sumcheck.ProveZero(tr, base, sumcheck.Config{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
			add(rec, fmt.Sprintf("sumcheck.ProveZero/vanilla/2^%d", lg), w, res, baselines)
		}
	}

	// perm.Build rides along: its table build and batched inversion now run
	// on the fused and scratch-backed kernels.
	{
		rng := ff.NewRand(71)
		k := 3
		wires := make([]*mle.Table, k)
		for j := range wires {
			wires[j] = mle.FromEvals(rng.Elements(1 << permLg))
		}
		sigma := perm.SigmaTables(perm.Identity(k, 1<<permLg), permLg)
		beta, gamma := rng.Element(), rng.Element()
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					perm.BuildWorkers(wires, sigma, beta, gamma, w)
				}
			})
			add(rec, fmt.Sprintf("perm.Build/2^%d/k=3", permLg), w, res, baselines)
		}
	}

	// mle.Evaluate: now zero-alloc on the serial path.
	{
		rng := ff.NewRand(71)
		tab := mle.FromEvals(rng.Elements(1 << evalLg))
		point := rng.Elements(evalLg)
		for _, w := range budgets {
			w := w
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tab.EvaluateWorkers(point, w)
				}
			})
			add(rec, fmt.Sprintf("mle.Evaluate/2^%d", evalLg), w, res, baselines)
		}
	}

	// End-to-end session Prove: everything between the circuit tables and
	// the transcript now runs on the fast paths.
	srs, compiled := setupBenchSession(e2eLg, quick)
	for _, w := range budgets {
		prover, err := zkphire.NewProver(srs, compiled, zkphire.WithWorkers(w))
		if err != nil {
			log.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prover.Prove(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(rec, fmt.Sprintf("session.Prove/logGates=%d", e2eLg), w, res, baselines)
	}
}

// setupBenchSession builds the 40000-gate benchmark circuit (the same shape
// every session.Prove generation was measured on) and its SRS.
func setupBenchSession(lg int, quick bool) (*zkphire.SRS, *zkphire.CompiledCircuit) {
	log.Printf("setting up SRS for logGates=%d (one-time)", lg)
	srs := zkphire.SetupDeterministic(lg+1, 42)
	cb := zkphire.NewCircuitBuilder()
	x := cb.Secret(3)
	acc := x
	gateTarget := 40000
	if quick {
		gateTarget = (1 << lg) * 3 / 5
	}
	for i := 0; i < gateTarget; i++ {
		if i%2 == 0 {
			acc = cb.Mul(acc, x)
		} else {
			acc = cb.Add(acc, x)
		}
	}
	compiled, err := zkphire.Compile(cb, zkphire.WithLogGates(lg))
	if err != nil {
		log.Fatal(err)
	}
	return srs, compiled
}

// benchMem produces the PR 8 memory rows: one in-core prove and one
// streamed prove of the same circuit, each bracketed by a membench sampler,
// with the streamed session budgeted at half the measured in-core peak
// (minus the fixed non-heap allowance GOMEMLIMIT cannot govern). The proof
// bytes are compared before anything is written: a memory number for a
// diverging prover would be meaningless.
func benchMem(rec *record, lg int, quick bool) {
	if quick {
		lg = 14
	}
	w := runtime.GOMAXPROCS(0)
	cb := zkphire.NewCircuitBuilder()
	x := cb.Secret(3)
	acc := x
	for i := 0; i < (1<<lg)*3/5; i++ {
		if i%2 == 0 {
			acc = cb.Mul(acc, x)
		} else {
			acc = cb.Add(acc, x)
		}
	}
	compiled, err := zkphire.Compile(cb, zkphire.WithLogGates(lg))
	if err != nil {
		log.Fatal(err)
	}
	// Synthetic SRS: i·G prefix levels, each level an owned slice so Offload
	// genuinely frees it. The trusted-setup bases only shape MSM cost and
	// residency, never proof bytes, and the prover never needs the trapdoor.
	buildSRS := func() *zkphire.SRS {
		pts := benchPoints(1 << (lg + 1))
		srs := &pcs.SRS{MaxVars: lg + 1, Levels: make([][]curve.G1Affine, lg+2)}
		for k := 0; k <= lg+1; k++ {
			lvl := make([]curve.G1Affine, 1<<k)
			copy(lvl, pts[:1<<k])
			srs.Levels[k] = lvl
		}
		return srs
	}

	var refBytes []byte
	var inPeak int64
	{
		srs := buildSRS()
		var d time.Duration
		r := membench.Sample(func() {
			p, err := zkphire.NewProver(srs, compiled, zkphire.WithWorkers(w))
			if err != nil {
				log.Fatal(err)
			}
			t0 := time.Now()
			proof, err := p.Prove(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			d = time.Since(t0)
			if refBytes, err = proof.MarshalBinary(); err != nil {
				log.Fatal(err)
			}
		})
		inPeak = r.PeakBytes
		addMem(rec, fmt.Sprintf("session.Prove/logGates=%d/incore", lg), w, d, r, 0)
	}
	debug.FreeOSMemory()

	budget := inPeak/2 - (40 << 20)
	if budget < 64<<20 {
		budget = 64 << 20
	}
	{
		srs := buildSRS()
		// A long-lived out-of-core session pays the resident-SRS transient
		// once at setup; the row brackets the steady state.
		if err := srs.Offload("", budget/8); err != nil {
			log.Fatal(err)
		}
		debug.FreeOSMemory()
		var d time.Duration
		var gotBytes []byte
		r := membench.SampleUnderLimit(budget, func() {
			p, err := zkphire.NewProver(srs, compiled, zkphire.WithMemoryBudget(budget), zkphire.WithWorkers(w))
			if err != nil {
				log.Fatal(err)
			}
			defer p.Close()
			t0 := time.Now()
			proof, err := p.Prove(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			d = time.Since(t0)
			if gotBytes, err = proof.MarshalBinary(); err != nil {
				log.Fatal(err)
			}
		})
		if !bytes.Equal(gotBytes, refBytes) {
			log.Fatal("streamed proof bytes differ from in-core reference; refusing to write a memory record")
		}
		addMem(rec, fmt.Sprintf("session.Prove/logGates=%d/streamed", lg), w, d, r, budget)
		log.Printf("streamed peak %d MiB = %.0f%% of in-core peak %d MiB (budget %d MiB)",
			r.PeakBytes>>20, 100*float64(r.PeakBytes)/float64(inPeak), inPeak>>20, budget>>20)
	}
}

// addMem appends a membench-sampled row: ns/op is one timed prove,
// peak_rss_bytes the sampler's bracketed high-water mark.
func addMem(rec *record, name string, workers int, d time.Duration, r membench.Result, budget int64) {
	kr := kernelResult{
		Name:           name,
		Workers:        workers,
		NsPerOp:        d.Nanoseconds(),
		PeakRSSBytes:   r.PeakBytes,
		MemBudgetBytes: budget,
	}
	rec.Kernels = append(rec.Kernels, kr)
	log.Printf("%-36s workers=%-2d %12d ns/op  peak rss %d MiB (budget %d MiB)", name, workers, kr.NsPerOp, kr.PeakRSSBytes>>20, budget>>20)
}

// benchSessions measures what the serving layer's session cache buys: the
// cache-miss path (preprocessing + proof) against the cache-hit path
// (proof only, on a reused session) at each worker budget.
func benchSessions(rec *record, lg int, budgets []int) {
	srs := zkphire.SetupDeterministic(lg+1, 42)
	cb := zkphire.NewCircuitBuilder()
	x := cb.Secret(3)
	acc := x
	for i := 0; i < (1<<lg)*3/5; i++ {
		if i%2 == 0 {
			acc = cb.Mul(acc, x)
		} else {
			acc = cb.Add(acc, x)
		}
	}
	compiled, err := zkphire.Compile(cb, zkphire.WithLogGates(lg))
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range budgets {
		w := w
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prover, err := zkphire.NewProver(srs, compiled, zkphire.WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := prover.Prove(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(rec, fmt.Sprintf("session.ProveCold/logGates=%d", lg), w, res, nil)
	}
	for _, w := range budgets {
		w := w
		prover, err := zkphire.NewProver(srs, compiled, zkphire.WithWorkers(w))
		if err != nil {
			log.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prover.Prove(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(rec, fmt.Sprintf("session.ProveCached/logGates=%d", lg), w, res, nil)
	}
	// The component the cache amortizes, on its own: selector + sigma
	// commitments (8 tables for Vanilla).
	for _, w := range budgets {
		w := w
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := zkphire.NewProver(srs, compiled, zkphire.WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(rec, fmt.Sprintf("session.Preprocess/logGates=%d", lg), w, res, nil)
	}
}

// writeRecord serializes the record to path.
func writeRecord(rec *record, path string) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d kernel rows)", path, len(rec.Kernels))
}

func add(rec *record, name string, workers int, res testing.BenchmarkResult, baselines map[string]int64) {
	kr := kernelResult{
		Name:         name,
		Workers:      workers,
		NsPerOp:      res.NsPerOp(),
		AllocsPerOp:  res.AllocsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
		TotalAllocs:  int64(res.MemAllocs),
		PeakRSSBytes: membench.PeakRSSBytes(),
	}
	if base, ok := baselines[name]; ok && workers == 1 {
		kr.BaselineNsPerOp = base
		if kr.NsPerOp > 0 {
			kr.Speedup = float64(base) / float64(kr.NsPerOp)
		}
	}
	rec.Kernels = append(rec.Kernels, kr)
	log.Printf("%-32s workers=%-2d %12d ns/op  %8d allocs/op  rss %d MiB", name, workers, kr.NsPerOp, kr.AllocsPerOp, kr.PeakRSSBytes>>20)
}

// benchPoints returns n distinct affine points (i·G) cheaply.
func benchPoints(n int) []curve.G1Affine {
	g := curve.Generator()
	jacs := make([]curve.G1Jac, n)
	var acc curve.G1Jac
	acc.SetInfinity()
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	return curve.BatchFromJacobian(jacs)
}
