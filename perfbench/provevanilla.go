package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"zkphire"
)

// runProveVanilla is library use in a closed loop with one client: one
// seeded Vanilla circuit, one Prover with workers = nproc, Prove back to
// back for the run time. Each proof is verified and byte-compared with the
// run's first proof outside the timed region.
func runProveVanilla(cfg config) (*outcome, error) {
	sz := cfg.sz
	logGates := sz.proveLogGates
	workers := runtime.NumCPU()
	prog := genVanillaProgram(cfg.seed, logGates)
	var rec *Recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set-up: SRS, Compile, NewProver — repeated, median reported.
	var setups []float64
	var (
		srs    *zkphire.SRS
		prover *zkphire.Prover
	)
	for rep := 0; rep < sz.proveSetupReps; rep++ {
		srs, prover = nil, nil
		runtime.GC()
		start := time.Now()
		rec.Time("zkphire.srs_setup", 0, 0, func(int) {
			srs = zkphire.SetupDeterministic(logGates+1, cfg.seed+1)
		})
		var cc *zkphire.CompiledCircuit
		var err error
		b := prog.builder()
		rec.Time("zkphire.compile", 0, 0, func(int) {
			cc, err = zkphire.Compile(b, zkphire.WithLogGates(logGates))
		})
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		rec.Time("zkphire.newprover", 0, 0, func(int) {
			prover, err = zkphire.NewProver(srs, cc, zkphire.WithWorkers(workers))
		})
		if err != nil {
			return nil, fmt.Errorf("new prover: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	out := &outcome{metrics: map[string]float64{}}
	ctx := context.Background()
	// check verifies a proof and compares its bytes with the reference.
	var ref []byte
	check := func(p *zkphire.Proof, req int64) bool {
		var verr error
		rec.Time("zkphire.verify", 0, req, func(int) { verr = prover.Verify(p) })
		data, err := p.MarshalBinary()
		if verr != nil || err != nil {
			return false
		}
		if ref == nil {
			ref = data
			return true
		}
		return bytes.Equal(data, ref)
	}

	// One untimed proof lets the arenas and lazy tables fill; it also
	// fixes the reference bytes.
	warm, err := prover.Prove(ctx)
	if err != nil {
		return nil, fmt.Errorf("warm-up prove: %w", err)
	}
	if !check(warm, 0) {
		return nil, fmt.Errorf("warm-up proof does not verify")
	}

	var lat []float64
	ok := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := int64(1); time.Now().Before(deadline) || len(lat) < 3; i++ {
		out.attempted++
		var p *zkphire.Proof
		d := rec.Time("zkphire.prove", 0, i, func(int) { p, err = prover.Prove(ctx) })
		if err != nil {
			out.failed++
			continue
		}
		lat = append(lat, d.Seconds())
		if !check(p, i) {
			out.failed++
			out.checksFailed++
			continue
		}
		if d <= sz.sloProve {
			ok++
		}
	}

	m := out.metrics
	if !cfg.trace {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		p50 := median(lat)
		m["setup_s"] = median(setups)
		m["latency_p50_s"] = p50
		m["latency_p90_s"] = percentile(lat, 0.9)
		m["geomean_latency_s"] = p50 // one operation class
		m["throughput_per_s"] = float64(len(lat)) / sum(lat)
		m["slo_ok_frac"] = float64(ok) / float64(out.attempted)
		m["peak_rss_mib"] = rss
		m["proof_bytes"] = float64(len(ref))
		return out, nil
	}

	spans := rec.Spans()
	for _, name := range []string{"zkphire.srs_setup", "zkphire.compile", "zkphire.newprover", "zkphire.prove", "zkphire.verify"} {
		m[name+"_s"] = median(durations(spans, name))
	}
	// Traced and untraced proofs, checked like the rest, give the span's
	// cost. A nil recorder times without tracing.
	probe := func(r *Recorder) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			var p *zkphire.Proof
			var err error
			d := r.Time("zkphire.prove", 0, 0, func(int) { p, err = prover.Prove(ctx) })
			if err == nil && !check(p, 0) {
				err = errors.New("proof fails its check")
			}
			return d, err
		}
	}
	if m["trace.overhead_frac"], err = tracedVsPlain(3, probe(rec), probe(nil)); err != nil {
		return nil, fmt.Errorf("overhead probe: %w", err)
	}
	if err := hyperplonkLayers(cfg, prog, srs, rec, m); err != nil {
		return nil, err
	}
	fieldLayers(m)
	mleLayers(cfg.seed, logGates, m)
	if err := tableILayers(cfg, out); err != nil {
		return nil, err
	}
	return out, rec.WriteFile(cfg.tracePath())
}
