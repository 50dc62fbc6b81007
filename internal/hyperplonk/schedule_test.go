package hyperplonk

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"zkphire/internal/gates"
	"zkphire/internal/pcs"
	"zkphire/internal/spill"
)

// proveSetup is one way to run the prover: an index, the SRS it was
// preprocessed against, and the prover config.
type proveSetup struct {
	name string
	srs  *pcs.SRS
	idx  *Index
	cfg  Config
}

// proveSetups returns the in-core setup and the bounded-memory one (an
// offloaded SRS with a one-byte cache, so every MSM streams basis chunks,
// and a spilled index) for circuit c.
func proveSetups(t *testing.T, c *gates.Circuit) []proveSetup {
	t.Helper()
	idx, err := PreprocessWorkers(testSRS, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	srs := pcs.SetupDeterministic(9, 777) // testSRS's parameters; Offload is sticky
	if err := srs.Offload(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	store, err := spill.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	spilled, err := PreprocessSpilled(srs, c, 1, store)
	if err != nil {
		t.Fatal(err)
	}
	return []proveSetup{
		{"in-core", testSRS, idx, Config{Workers: 2}},
		{"memory-budget", srs, spilled, Config{Workers: 2, MemoryBudget: 1 << 20}},
	}
}

// TestPipelinedCancellation cancels a proof mid-flight and checks it aborts
// promptly: the MSM and SumCheck kernels poll ctx inside their hot loops,
// every step boundary checks it, and Prove must return context.Canceled —
// not a wrapped kernel error and not a completed proof. Cancels land after
// fixed delays and, through stepHook, inside step 5 (the OpenCheck
// SumChecks and opening witness MSMs, about 45% of a proof) just after its
// boundary check has passed. Both the in-core and the memory-budget setup
// are covered.
func TestPipelinedCancellation(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 8)
	cases := []struct {
		delay  time.Duration
		atStep int // cancel from stepHook at this step instead of after delay
	}{
		{delay: 0}, {delay: 200 * time.Microsecond}, {delay: 2 * time.Millisecond}, {atStep: 5},
	}
	for _, s := range proveSetups(t, c) {
		t.Run(s.name, func(t *testing.T) {
			defer func() { stepHook = nil }()
			for _, tc := range cases {
				ctx, cancel := context.WithCancel(context.Background())
				var start time.Time
				cancelNow := func() {
					start = time.Now()
					cancel()
				}
				stepHook = nil
				if tc.atStep > 0 {
					stepHook = func(step int) {
						if step == tc.atStep {
							cancelNow()
						}
					}
				}
				done := make(chan error, 1)
				go func() {
					_, err := Prove(ctx, s.srs, s.idx, c, s.cfg)
					done <- err
				}()
				if tc.atStep == 0 {
					time.Sleep(tc.delay)
					cancelNow()
				}
				select {
				case err := <-done:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%+v: Prove error = %v, want context.Canceled", tc, err)
					}
					if lat := time.Since(start); lat > 2*time.Second {
						t.Fatalf("%+v: cancellation took %v", tc, lat)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%+v: prover did not abort after cancellation", tc)
				}
				cancel()
			}
		})
	}
}

// TestPipelinedGoroutineDrain proves repeatedly — including cancelled runs —
// in-core and under a memory budget, and checks the prover leaks no
// goroutines: every kernel joins its workers before returning, so the count
// returns to its baseline.
func TestPipelinedGoroutineDrain(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 6)
	setups := proveSetups(t, c)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		for _, s := range setups {
			if _, err := Prove(context.Background(), s.srs, s.idx, c, s.cfg); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := Prove(ctx, s.srs, s.idx, c, s.cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: pre-cancelled Prove error = %v, want context.Canceled", s.name, err)
			}
		}
	}
	// The runtime may retire worker-pool goroutines lazily; poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
