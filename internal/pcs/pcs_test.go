package pcs

import (
	"context"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

var testSRS = SetupDeterministic(8, 12345)

func TestCommitOpenVerify(t *testing.T) {
	rng := ff.NewRand(1)
	for _, nv := range []int{1, 3, 6, 8} {
		tab := mle.FromEvals(rng.Elements(1 << uint(nv)))
		c, err := testSRS.Commit(tab)
		if err != nil {
			t.Fatal(err)
		}
		z := rng.Elements(nv)
		y, proof, err := testSRS.Open(tab, z)
		if err != nil {
			t.Fatal(err)
		}
		// The opened value must equal the true MLE evaluation.
		want := tab.Evaluate(z)
		if !y.Equal(&want) {
			t.Fatalf("nv=%d: opened value wrong", nv)
		}
		if err := testSRS.Verify(c, z, y, proof); err != nil {
			t.Fatalf("nv=%d: %v", nv, err)
		}
	}
}

func TestVerifyRejectsWrongValue(t *testing.T) {
	rng := ff.NewRand(2)
	tab := mle.FromEvals(rng.Elements(64))
	c, _ := testSRS.Commit(tab)
	z := rng.Elements(6)
	y, proof, _ := testSRS.Open(tab, z)

	var bad ff.Element
	bad.Add(&y, &y)
	var oneE ff.Element
	oneE.SetOne()
	bad.Add(&bad, &oneE)
	if err := testSRS.Verify(c, z, bad, proof); err == nil {
		t.Fatal("verified a wrong evaluation value")
	}
}

func TestVerifyRejectsWrongCommitment(t *testing.T) {
	rng := ff.NewRand(3)
	tab1 := mle.FromEvals(rng.Elements(64))
	tab2 := mle.FromEvals(rng.Elements(64))
	c2, _ := testSRS.Commit(tab2)
	z := rng.Elements(6)
	y, proof, _ := testSRS.Open(tab1, z)
	if err := testSRS.Verify(c2, z, y, proof); err == nil {
		t.Fatal("opening for tab1 verified against commitment to tab2")
	}
}

func TestVerifyRejectsWrongPoint(t *testing.T) {
	rng := ff.NewRand(4)
	tab := mle.FromEvals(rng.Elements(64))
	c, _ := testSRS.Commit(tab)
	z := rng.Elements(6)
	y, proof, _ := testSRS.Open(tab, z)
	z2 := rng.Elements(6)
	if err := testSRS.Verify(c, z2, y, proof); err == nil {
		t.Fatal("opening verified at a different point")
	}
}

func TestCommitmentBindingLinear(t *testing.T) {
	// Commit(a) + Commit(b) must equal Commit(a+b) — homomorphism the batch
	// opening protocol relies on.
	rng := ff.NewRand(5)
	a := mle.FromEvals(rng.Elements(32))
	b := mle.FromEvals(rng.Elements(32))
	ca, _ := testSRS.Commit(a)
	cb, _ := testSRS.Commit(b)
	sum := a.Clone()
	sum.AddInPlace(b)
	cSum, _ := testSRS.Commit(sum)

	oneE := ff.One()
	combined, err := CombineCommitments([]Commitment{ca, cb}, []ff.Element{oneE, oneE})
	if err != nil {
		t.Fatal(err)
	}
	if !combined.Point.Equal(&cSum.Point) {
		t.Fatal("commitment is not additively homomorphic")
	}
}

func TestBatchedSinglePointOpening(t *testing.T) {
	// Open Σ β^k f_k at one point via the combined table; verify against the
	// combined commitment.
	rng := ff.NewRand(6)
	k := 4
	nv := 6
	tables := make([]*mle.Table, k)
	comms := make([]Commitment, k)
	for i := range tables {
		tables[i] = mle.FromEvals(rng.Elements(1 << uint(nv)))
		c, err := testSRS.Commit(tables[i])
		if err != nil {
			t.Fatal(err)
		}
		comms[i] = c
	}
	beta := rng.Element()
	coeffs := make([]ff.Element, k)
	coeffs[0] = ff.One()
	for i := 1; i < k; i++ {
		coeffs[i].Mul(&coeffs[i-1], &beta)
	}
	combTab, err := CombineTables(tables, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	combComm, err := CombineCommitments(comms, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	z := rng.Elements(nv)
	y, proof, err := testSRS.Open(combTab, z)
	if err != nil {
		t.Fatal(err)
	}
	if err := testSRS.Verify(combComm, z, y, proof); err != nil {
		t.Fatal(err)
	}
	// And y must equal Σ β^k f_k(z).
	var want ff.Element
	for i := range tables {
		v := tables[i].Evaluate(z)
		v.Mul(&v, &coeffs[i])
		want.Add(&want, &v)
	}
	if !y.Equal(&want) {
		t.Fatal("combined opening value mismatch")
	}
}

func TestSparseCommitMatchesDense(t *testing.T) {
	rng := ff.NewRand(7)
	sparse := mle.FromEvals(rng.SparseElements(256, 0.1))
	c1, err := testSRS.Commit(sparse)
	if err != nil {
		t.Fatal(err)
	}
	// Force the dense path by committing a clone through MSM directly: the
	// sparse fast path must be value-identical. Re-commit after adding 0.
	dense := sparse.Clone()
	z := mle.New(8)
	dense.AddInPlace(z)
	c2, err := testSRS.Commit(dense)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Point.Equal(&c2.Point) {
		t.Fatal("sparse/dense commit mismatch")
	}
}

func TestArityErrors(t *testing.T) {
	rng := ff.NewRand(8)
	tab := mle.FromEvals(rng.Elements(16))
	if _, _, err := testSRS.Open(tab, rng.Elements(3)); err == nil {
		t.Fatal("accepted wrong point arity")
	}
	big := mle.FromEvals(rng.Elements(1 << 9))
	if _, err := testSRS.Commit(big); err == nil {
		t.Fatal("accepted table larger than SRS")
	}
	if _, err := CombineCommitments(nil, nil); err == nil {
		t.Fatal("accepted empty combination")
	}
}

func TestSetupValidatesRange(t *testing.T) {
	if _, err := Setup(0, ff.NewRandReader(1)); err == nil {
		t.Fatal("accepted maxVars=0")
	}
	if _, err := Setup(99, ff.NewRandReader(1)); err == nil {
		t.Fatal("accepted absurd maxVars")
	}
}

func BenchmarkCommit2_8(b *testing.B) {
	rng := ff.NewRand(9)
	tab := mle.FromEvals(rng.Elements(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testSRS.Commit(tab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen2_8(b *testing.B) {
	rng := ff.NewRand(10)
	tab := mle.FromEvals(rng.Elements(256))
	z := rng.Elements(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := testSRS.Open(tab, z); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCommitCtxCancelled checks CommitCtx returns promptly with ctx.Err()
// on a pre-cancelled context and that the error propagates from the MSM.
func TestCommitCtxCancelled(t *testing.T) {
	srs := SetupDeterministic(8, 7)
	rng := ff.NewRand(3)
	tab := mle.FromEvals(rng.Elements(1 << 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srs.CommitCtx(ctx, tab, 2); err != context.Canceled {
		t.Fatalf("CommitCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, _, err := srs.OpenWorkersCtx(ctx, tab, rng.Elements(8), 2); err != context.Canceled {
		t.Fatalf("OpenWorkersCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}
