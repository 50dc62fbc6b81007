// Command perfbench is zkphire's benchmark. One run measures one workload
// for a fixed time, checks every output, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a user sees; with
// -trace 1 they are the per-layer ones, measured from spans the benchmark
// records around its calls into each layer. See README.md for every
// metric's definition and the layer metric → end-to-end metric map.
//
// Run it through run.sh, which builds it and the zkphired daemon from the
// enclosing tree:
//
//	bash perfbench/run.sh --workload sumcheck-tableI --seed 3 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// unitOf gives every metric's unit; endToEnd and perLayer list which
// metrics each mode prints. Both must match BENCHMARK.json (a test checks).
var endToEnd = []string{
	"setup_s", "latency_p50_s", "latency_p90_s", "geomean_latency_s",
	"throughput_per_s", "slo_ok_frac", "peak_rss_mib", "proof_bytes",
}

var perLayer = append([]string{
	"zkphire.srs_setup_s", "zkphire.compile_s", "zkphire.newprover_s", "zkphire.prove_s", "zkphire.verify_s",
	"hyperplonk.step1_witness_commit_s", "hyperplonk.step2_gate_identity_s", "hyperplonk.step3_wire_identity_s",
	"hyperplonk.step4_batch_eval_s", "hyperplonk.step5_opening_s", "hyperplonk.unattributed_s",
	"hyperplonk.prove_sequential_s", "hyperplonk.prove_w1_s", "parallel.efficiency",
	"pcs.commit_dense_s", "pcs.commit_sparse_s", "pcs.open_s", "pcs.commits", "pcs.opens",
	"curve.msm_s", "curve.msm_ns_per_point", "curve.msm_points", "curve.msm_bytes_computed", "curve.model_vs_measured",
	"fp.ns_per_mul", "ff.ns_per_mul",
	"sumcheck.verify_s", "sumcheck.muls", "sumcheck.ns_per_mul", "sumcheck.mul_overhead",
	"sumcheck.round0_s", "sumcheck.model_vs_measured",
	"mle.fold_s", "mle.evaluate_s", "mle.eq_s", "perm.build_s",
	"service.queue_wait_p50_s", "service.queue_wait_p90_s", "service.server_prove_p50_s",
	"service.register_s", "service.verify_s", "service.cache_hit_frac", "service.reregister_frac",
	"service.preprocesses", "service.rejected", "journal.replay_s", "journal.bytes",
	"cluster.dispatch_overhead_p50_s", "cluster.dispatches_per_job", "cluster.redispatches",
	"cluster.fenced", "cluster.replication_s",
	"loadgen.late_p99_s", "loadgen.sent", "loadgen.conns", "trace.overhead_frac",
}, tableIMetricNames()...)

func tableIMetricNames() []string {
	var out []string
	for _, name := range tableINames() {
		out = append(out, "sumcheck.prove_s."+name)
	}
	return out
}

func unitOf(name string) string {
	switch name {
	case "throughput_per_s":
		return "1/s"
	case "slo_ok_frac", "parallel.efficiency", "curve.model_vs_measured", "sumcheck.mul_overhead",
		"sumcheck.model_vs_measured", "service.cache_hit_frac", "service.reregister_frac",
		"cluster.dispatches_per_job", "trace.overhead_frac":
		return "ratio"
	case "peak_rss_mib":
		return "MiB"
	case "proof_bytes", "journal.bytes", "curve.msm_bytes_computed":
		return "B"
	case "fp.ns_per_mul", "ff.ns_per_mul", "sumcheck.ns_per_mul", "curve.msm_ns_per_point":
		return "ns"
	case "pcs.commits", "pcs.opens", "curve.msm_points", "sumcheck.muls", "service.preprocesses",
		"service.rejected", "cluster.redispatches", "cluster.fenced", "loadgen.sent", "loadgen.conns":
		return "count"
	}
	return "s"
}

// config is one run's settings plus the workload sizes.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	zkphired string // daemon binary for the serve workloads
	workdir  string // scratch space for journals, logs, traces
	sz       sizes
}

// sizes are the workload dimensions. Tests shrink them.
type sizes struct {
	proveLogGates  int
	proveSetupReps int
	sloProve       time.Duration

	sumcheckLogN      int
	sumcheckSetupReps int
	sloSumcheck       time.Duration

	poolSize       int
	poolLogGates   int
	cache          int
	rate           float64 // offered requests per second
	serveSetupReps int
	sloServe       time.Duration
	maxLate        time.Duration // generator lateness beyond which a run is invalid
}

var fullSizes = sizes{
	proveLogGates: 13, proveSetupReps: 2, sloProve: 6 * time.Second,
	sumcheckLogN: 14, sumcheckSetupReps: 2, sloSumcheck: time.Second,
	poolSize: 16, poolLogGates: 3, cache: 12, rate: 6, serveSetupReps: 15,
	sloServe: 500 * time.Millisecond, maxLate: 500 * time.Millisecond,
}

// outcome is what a workload reports: operation counts, whether every
// correctness check passed, and its metrics (end-to-end or per-layer).
type outcome struct {
	attempted, failed int
	checksFailed      int
	metrics           map[string]float64
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"prove-vanilla":   runProveVanilla,
	"sumcheck-tableI": runSumcheckTableI,
	"serve-single":    func(cfg config) (*outcome, error) { return runServe(cfg, false) },
	"serve-cluster":   func(cfg config) (*outcome, error) { return runServe(cfg, true) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 50, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.zkphired, "zkphired", "", "zkphired binary (serve workloads)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/runs", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sz = fullSizes

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles the result line.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown -workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	info := runnerInfo()
	fmt.Printf("runner %s\n", info)

	out, err := fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	// A failed operation fails the run, like a failed check: a healthy
	// run has failed = 0.
	res := &result{
		Correct:   out.checksFailed == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, name := range names {
		v, ok := out.metrics[name]
		if !cfg.trace && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", name, v)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return res, nil
}

// runnerInfo describes the machine so records from different runners are
// never mixed up.
func runnerInfo() string {
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     treeID(),
	})
	return string(b)
}

// tracePath is where a traced run writes its spans: beside the run
// directories, so it outlives the run's scratch space.
func (c config) tracePath() string {
	dir := filepath.Join(filepath.Dir(c.workdir), "traces")
	_ = os.MkdirAll(dir, 0o755) // WriteFile reports a missing directory
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}
