package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"zkphire/internal/ff"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

func tableINames() []string {
	var out []string
	for _, c := range poly.AllRegistered() {
		out = append(out, c.Name)
	}
	return out
}

// runSumcheckTableI is the paper's kernel benchmark: each pass proves
// every Table I constraint once with sumcheck.Prove on seeded 2^logN-row
// tables, claiming the assignment's true hypercube sum. Every proof is
// checked with sumcheck.Verify and FinalCheck outside the timed region.
func runSumcheckTableI(cfg config) (*outcome, error) {
	logN := cfg.sz.sumcheckLogN
	workers := runtime.NumCPU()
	var rec *Recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set-up: table generation and the SumAll claims — repeated, median
	// reported.
	var (
		setups  []float64
		assigns []*sumcheck.Assignment
		claims  []ff.Element
	)
	for rep := 0; rep < cfg.sz.sumcheckSetupReps; rep++ {
		assigns, claims = nil, nil
		runtime.GC()
		start := time.Now()
		var err error
		if assigns, err = tableIInputs(cfg.seed, logN); err != nil {
			return nil, err
		}
		for _, a := range assigns {
			claims = append(claims, a.SumAll())
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	out := &outcome{metrics: map[string]float64{}}
	times := make([][]float64, len(assigns)) // per constraint, seconds
	var passTimes []float64                  // proving time of each full pass
	var verifyTimes []float64
	proofBytes := 0
	ok := 0
	prove := func(rec *Recorder, i int, req int64) (time.Duration, bool) {
		a := assigns[i]
		var (
			pf  *sumcheck.Proof
			err error
		)
		d := rec.Time("sumcheck.prove_s."+a.Composite.Name, 0, req, func(int) {
			pf, _, err = sumcheck.Prove(transcript.New("tableI"), a, claims[i], sumcheck.Config{Workers: workers})
		})
		if err != nil {
			return d, false
		}
		vstart := time.Now()
		_, want, verr := sumcheck.Verify(transcript.New("tableI"), a.Composite, logN, pf)
		if verr == nil {
			verr = sumcheck.FinalCheck(a.Composite, pf.FinalEvals, &want)
		}
		verifyTimes = append(verifyTimes, time.Since(vstart).Seconds())
		if verr != nil || !pf.Claim.Equal(&claims[i]) {
			out.checksFailed++
			return d, false
		}
		if req == 0 {
			proofBytes += scProofBytes(pf)
		}
		return d, true
	}

	// An untimed warm-up pass fills the arena and fixes proof sizes.
	for i := range assigns {
		if _, good := prove(rec, i, 0); !good {
			return nil, fmt.Errorf("warm-up proof of %s failed", assigns[i].Composite.Name)
		}
	}
	verifyTimes = verifyTimes[:0]

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var req int64
	for pass := 0; time.Now().Before(deadline) || pass < 2; pass++ {
		var passTime float64
		for i := range assigns {
			req++
			out.attempted++
			d, good := prove(rec, i, req)
			passTime += d.Seconds()
			if !good {
				out.failed++
				continue
			}
			times[i] = append(times[i], d.Seconds())
			if d <= cfg.sz.sloSumcheck {
				ok++
			}
		}
		passTimes = append(passTimes, passTime)
	}

	m := out.metrics
	var all, medians []float64
	var proveTotal float64
	for i, ts := range times {
		all = append(all, ts...)
		med := median(ts)
		medians = append(medians, med)
		proveTotal += med
		m["sumcheck.prove_s."+assigns[i].Composite.Name] = med
	}
	if !cfg.trace {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		// A pass, not a single proof, is the latency operation: single
		// proofs span 25 constraints of very different cost, so their
		// median would fall between modes.
		m["setup_s"] = median(setups)
		m["latency_p50_s"] = median(passTimes)
		m["latency_p90_s"] = percentile(passTimes, 0.9)
		m["geomean_latency_s"] = geomean(medians)
		m["throughput_per_s"] = float64(len(all)) / sum(all)
		m["slo_ok_frac"] = float64(ok) / float64(out.attempted)
		m["peak_rss_mib"] = rss
		m["proof_bytes"] = float64(proofBytes)
		return out, nil
	}

	// Per-layer: operation counts beside the times, and the cpumodel
	// prediction from this machine's measured multiplication cost.
	fieldLayers(m)
	mleLayers(cfg.seed, logN, m)
	var muls uint64
	var predicted float64
	model := cpumodel.Model{NsPerMul: m["ff.ns_per_mul"], Threads: workers, ParallelEfficiency: 1}
	for _, a := range assigns {
		muls += sumcheck.CountMuls(a.Composite, logN)
		predicted += model.SumcheckSeconds(a.Composite, logN)
	}
	m["sumcheck.muls"] = float64(muls)
	m["sumcheck.ns_per_mul"] = proveTotal * float64(workers) * 1e9 / float64(muls)
	m["sumcheck.mul_overhead"] = m["sumcheck.ns_per_mul"] / m["ff.ns_per_mul"]
	m["sumcheck.model_vs_measured"] = predicted / proveTotal
	m["sumcheck.verify_s"] = median(verifyTimes)
	largest := assigns[0]
	for _, a := range assigns {
		if sumcheck.CountMuls(a.Composite, logN) > sumcheck.CountMuls(largest.Composite, logN) {
			largest = a
		}
	}
	m["sumcheck.round0_s"] = medianOf(3, func() { sumcheck.RoundPolynomial(largest, workers) })
	// Traced and untraced passes, checked like the rest, give the spans'
	// cost. A nil recorder times without tracing.
	probe := func(r *Recorder) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			var total time.Duration
			for i := range assigns {
				d, good := prove(r, i, -1)
				if !good {
					return 0, fmt.Errorf("proof of %s failed", assigns[i].Composite.Name)
				}
				total += d
			}
			return total, nil
		}
	}
	var err error
	if m["trace.overhead_frac"], err = tracedVsPlain(2, probe(rec), probe(nil)); err != nil {
		return nil, fmt.Errorf("overhead probe: %w", err)
	}
	return out, rec.WriteFile(cfg.tracePath())
}

// tableILayers gives a traced run of another workload the SumCheck layer
// metrics: it makes a short traced sumcheck-tableI run (one set-up, at
// least two checked passes) and copies its sumcheck.* metrics and its
// operation counts into out.
func tableILayers(cfg config, out *outcome) error {
	cfg.workload = "sumcheck-tableI"
	cfg.seconds = 1
	cfg.sz.sumcheckSetupReps = 1
	sc, err := runSumcheckTableI(cfg)
	if err != nil {
		return fmt.Errorf("table I layers: %w", err)
	}
	out.attempted += sc.attempted
	out.failed += sc.failed
	out.checksFailed += sc.checksFailed
	for name, v := range sc.metrics {
		if strings.HasPrefix(name, "sumcheck.") {
			out.metrics[name] = v
		}
	}
	return nil
}

// scProofBytes is a SumCheck proof's wire size: the claim, the compressed
// round evaluations and the final constituent evaluations, 32 bytes each.
func scProofBytes(p *sumcheck.Proof) int {
	n := 1 + len(p.FinalEvals)
	for _, r := range p.RoundEvals {
		n += len(r)
	}
	return n * ff.Bytes
}
