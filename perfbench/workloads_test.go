package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// quickSizes shrink every workload to a fraction of a second of work.
var quickSizes = sizes{
	proveLogGates: 6, proveSetupReps: 1, sloProve: 10 * time.Second,
	sumcheckLogN: 6, sumcheckSetupReps: 1, sloSumcheck: 10 * time.Second,
	poolSize: 4, poolLogGates: 4, cache: 3, rate: 20, serveSetupReps: 1,
	sloServe: 10 * time.Second, maxLate: 2 * time.Second,
}

// buildDaemon compiles zkphired from the enclosing tree once per test
// binary; TestMain removes it.
var daemonPath string

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonPath != "" {
		os.RemoveAll(filepath.Dir(daemonPath))
	}
	os.Exit(code)
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	if daemonPath != "" {
		return daemonPath
	}
	dir, err := os.MkdirTemp("", "perfbench-zkphired")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "zkphired")
	cmd := exec.Command("go", "build", "-o", bin, "zkphire/cmd/zkphired")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build zkphired: %v\n%s", err, out)
	}
	daemonPath = bin
	return bin
}

func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"prove-vanilla", "sumcheck-tableI", "serve-single", "serve-cluster"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[traced], func(t *testing.T) {
				cfg := config{workload: name, seed: 2, seconds: 0.5, trace: traced, workdir: t.TempDir(), sz: quickSizes}
				if name == "serve-single" || name == "serve-cluster" {
					cfg.zkphired = buildDaemon(t)
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				// A traced prove-vanilla run carries the SumCheck layers too.
				if traced && name == "prove-vanilla" && !(res.Metrics["sumcheck.prove_s.OpenCheck"].Value > 0) {
					t.Fatal("traced prove-vanilla run has no SumCheck layer metrics")
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables here
// in step: same names, same order, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		var names []string
		for _, m := range got {
			names = append(names, m.Name)
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s %s: unit %q, want %q", kind, m.Name, m.Unit, unitOf(m.Name))
			}
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s metrics %v, want %v", kind, names, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	// BENCHMARK.json lists the measured workloads; sumcheck-tableI and
	// serve-single are run by hand.
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
