package pcs

import (
	"context"
	"errors"
	"sync"
	"testing"

	"zkphire/internal/curve"
	"zkphire/internal/faultinject"
	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/spill"
)

// TestOffloadByteIdentical offloads an SRS mid-test and checks that every
// commit/open path produces results identical to the in-core ones computed
// moments before on the same (then-resident) levels. maxVars 13 makes the
// top level ~1.2 MB in RAM — larger than half the minimum cache budget — so
// the top-level commitment exercises the chunk-streamed MSM, while the
// opening chain's shrinking levels exercise the whole-level cache.
func TestOffloadByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("offload identity test builds a 2^13 SRS")
	}
	const nv = 13
	srs := SetupDeterministic(nv, 99)
	rng := ff.NewRand(123)
	dense := mle.FromEvals(rng.Elements(1 << nv))
	sparse := mle.New(nv)
	for i := 0; i < len(sparse.Evals); i += 17 {
		sparse.Evals[i] = rng.Element()
	}
	z := rng.Elements(nv)

	denseComm, err := srs.Commit(dense)
	if err != nil {
		t.Fatal(err)
	}
	sparseComm, err := srs.Commit(sparse)
	if err != nil {
		t.Fatal(err)
	}
	openVal, openProof, err := srs.Open(dense, z)
	if err != nil {
		t.Fatal(err)
	}

	if err := srs.Offload(t.TempDir(), 1); err != nil { // clamps to the 8 MiB floor
		t.Fatalf("Offload: %v", err)
	}
	if !srs.Backed() {
		t.Fatal("SRS not backed after Offload")
	}
	if srs.Levels[nv] != nil {
		t.Fatal("top level still resident after Offload")
	}

	denseComm2, err := srs.Commit(dense)
	if err != nil {
		t.Fatalf("backed dense commit: %v", err)
	}
	if !denseComm2.Point.Equal(&denseComm.Point) {
		t.Fatal("backed dense commitment differs from in-core")
	}
	sparseComm2, err := srs.CommitCtx(context.Background(), sparse, 2)
	if err != nil {
		t.Fatalf("backed sparse commit: %v", err)
	}
	if !sparseComm2.Point.Equal(&sparseComm.Point) {
		t.Fatal("backed sparse commitment differs from in-core")
	}

	openVal2, openProof2, err := srs.OpenWorkers(dense, z, 2)
	if err != nil {
		t.Fatalf("backed open: %v", err)
	}
	if !openVal2.Equal(&openVal) {
		t.Fatal("backed opening value differs")
	}
	for i := range openProof.Qs {
		if !openProof2.Qs[i].Equal(&openProof.Qs[i]) {
			t.Fatalf("backed witness commitment %d differs", i)
		}
	}
	if err := srs.Verify(denseComm2, z, openVal2, openProof2); err != nil {
		t.Fatalf("verify on backed SRS: %v", err)
	}

	// The cache respects its byte budget once nothing is pinned.
	b := srs.back
	b.mu.Lock()
	resident, budget := b.resident, b.cacheBudget
	for k := range b.lev {
		if b.lev[k].pins != 0 {
			t.Errorf("level %d still pinned (%d)", k, b.lev[k].pins)
		}
	}
	b.mu.Unlock()
	if resident > budget {
		t.Fatalf("cache resident %d exceeds budget %d", resident, budget)
	}

	// Concurrent backed commits share the single-flight cache safely and
	// agree with the in-core result.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	comms := make([]Commitment, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comms[i], errs[i] = srs.CommitWorkers(dense, 1)
		}(i)
	}
	wg.Wait()
	for i := range comms {
		if errs[i] != nil {
			t.Fatalf("concurrent commit %d: %v", i, errs[i])
		}
		if !comms[i].Point.Equal(&denseComm.Point) {
			t.Fatalf("concurrent commit %d differs", i)
		}
	}

	// After CloseBacking, offloaded levels error out — no panics.
	if err := srs.CloseBacking(); err != nil {
		t.Fatalf("CloseBacking: %v", err)
	}
	if _, err := srs.Commit(dense); err == nil {
		t.Fatal("commit on closed backing succeeded")
	}
}

// TestOffloadIdempotent checks double-Offload is a no-op and small levels
// stay resident.
func TestOffloadIdempotent(t *testing.T) {
	srs := SetupDeterministic(8, 5)
	if err := srs.Offload(t.TempDir(), 64<<20); err != nil {
		t.Fatal(err)
	}
	// 2^8 levels are all under smallLevelElems: everything stays resident.
	for k := range srs.Levels {
		if srs.Levels[k] == nil {
			t.Fatalf("small level %d offloaded", k)
		}
	}
	if err := srs.Offload(t.TempDir(), 1<<20); err != nil {
		t.Fatalf("second Offload: %v", err)
	}
	rng := ff.NewRand(1)
	tab := mle.FromEvals(rng.Elements(1 << 8))
	if _, err := srs.Commit(tab); err != nil {
		t.Fatal(err)
	}
	if err := srs.CloseBacking(); err != nil {
		t.Fatal(err)
	}
}

// offloadLevelForTest spills level k of a small SRS into a fresh store and
// drops the resident copy, regardless of the smallLevelElems threshold, so
// single-flight cache tests run on a cheap 2^6 setup instead of a 2^13 one.
func offloadLevelForTest(t *testing.T, srs *SRS, k int) {
	t.Helper()
	store, err := spill.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := &backing{store: store, ownStore: true, cacheBudget: 64 << 20, lev: make([]levelEntry, len(srs.Levels))}
	b.chunkElems = chunkElemsFor(b.cacheBudget)
	if err := b.writeLevel(k, srs.Levels[k]); err != nil {
		t.Fatal(err)
	}
	srs.endoMu.Lock()
	srs.Levels[k] = nil
	if srs.endo != nil {
		srs.endo[k] = nil
	}
	srs.endoMu.Unlock()
	srs.back = b
}

// TestAcquireLevelErrorNotCached pins the single-flight failure contract: a
// load that dies on a transient read error reports it to that attempt's
// callers only, and the very next acquire runs a fresh load and succeeds.
func TestAcquireLevelErrorNotCached(t *testing.T) {
	const k = 6
	srs := SetupDeterministic(k, 11)
	want := append([]curve.G1Affine(nil), srs.Levels[k]...)
	offloadLevelForTest(t, srs, k)
	defer srs.CloseBacking()

	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm("pcs.offload.read", faultinject.Fault{Mode: faultinject.ModeError, Count: 1})

	_, _, _, err := srs.acquireLevel(context.Background(), k, 1)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("first acquire = %v, want injected error", err)
	}
	srs.back.mu.Lock()
	if srs.back.lev[k].flight != nil {
		t.Fatal("failed flight left behind")
	}
	if srs.back.lev[k].pts != nil {
		t.Fatal("failed load cached points")
	}
	srs.back.mu.Unlock()

	// The error was not cached: the next caller reloads and succeeds.
	pts, endo, release, err := srs.acquireLevel(context.Background(), k, 1)
	if err != nil {
		t.Fatalf("acquire after transient failure: %v", err)
	}
	defer release()
	if len(pts) != len(want) || len(endo) != len(want) {
		t.Fatalf("reloaded level sized %d/%d, want %d", len(pts), len(endo), len(want))
	}
	for i := range want {
		if !pts[i].Equal(&want[i]) {
			t.Fatalf("reloaded point %d differs from pre-offload basis", i)
		}
	}
}

// TestAcquireLevelConcurrentFailure hammers a fail-once level from many
// goroutines: every failure is the injected error (never a stale cached
// one), the survivors agree on the loaded points, and a final serial
// acquire always succeeds.
func TestAcquireLevelConcurrentFailure(t *testing.T) {
	const k = 6
	srs := SetupDeterministic(k, 12)
	offloadLevelForTest(t, srs, k)
	defer srs.CloseBacking()

	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm("pcs.offload.read", faultinject.Fault{Mode: faultinject.ModeError, Count: 1})

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, release, err := srs.acquireLevel(context.Background(), k, 1)
			if err == nil {
				release()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("goroutine %d: unexpected error %v", i, err)
		}
	}
	if _, _, release, err := srs.acquireLevel(context.Background(), k, 1); err != nil {
		t.Fatalf("serial acquire after concurrent failure round: %v", err)
	} else {
		release()
	}
}

// TestAcquireLevelJoinerHonoursContext: a caller waiting on someone else's
// flight must abandon the wait when its own context dies, without
// disturbing the flight.
func TestAcquireLevelJoinerHonoursContext(t *testing.T) {
	const k = 6
	srs := SetupDeterministic(k, 13)
	offloadLevelForTest(t, srs, k)
	defer srs.CloseBacking()

	// Park a fake flight so the joiner has something to wait on.
	b := srs.back
	f := &levelFlight{done: make(chan struct{})}
	b.mu.Lock()
	b.lev[k].flight = f
	b.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := srs.acquireLevel(ctx, k, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner = %v, want context.Canceled", err)
	}

	// Settle the fake flight as a failure; the level must still load fresh.
	b.mu.Lock()
	b.lev[k].flight = nil
	b.mu.Unlock()
	close(f.done)
	if _, _, release, err := srs.acquireLevel(context.Background(), k, 1); err != nil {
		t.Fatalf("acquire after abandoned flight: %v", err)
	} else {
		release()
	}
}
