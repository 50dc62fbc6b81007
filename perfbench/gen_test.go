package main

import (
	"reflect"
	"sort"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/poly"
)

func TestVanillaProgramDeterministic(t *testing.T) {
	a := genVanillaProgram(3, 8)
	b := genVanillaProgram(3, 8)
	c := genVanillaProgram(4, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different programs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same program")
	}
	if want := 230; len(a.ops) != want { // ⌊0.9·256⌋
		t.Fatalf("%d gates, want %d", len(a.ops), want)
	}
	circ, err := a.circuit(8)
	if err != nil {
		t.Fatal(err)
	}
	if !circ.Satisfied() || !circ.CopySatisfied() {
		t.Fatal("generated circuit is not satisfied")
	}
}

func TestTableIInputs(t *testing.T) {
	a, err := tableIInputs(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tableIInputs(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(poly.AllRegistered()) {
		t.Fatalf("%d assignments, want one per Table I constraint", len(a))
	}
	one, zero := ff.One(), ff.Zero()
	for i := range a {
		ca, cb := a[i].SumAll(), b[i].SumAll()
		if !ca.Equal(&cb) {
			t.Fatalf("%s: same seed gave different tables", a[i].Composite.Name)
		}
		for j, tab := range a[i].Tables {
			if a[i].Composite.Roles[j] != poly.RoleSelector {
				continue
			}
			for _, v := range tab.Evals {
				if !v.Equal(&one) && !v.Equal(&zero) {
					t.Fatalf("%s: selector %d holds a non-binary value", a[i].Composite.Name, j)
				}
			}
		}
	}
}

func TestGenSpecCompiles(t *testing.T) {
	for _, slot := range append(poolShapes(2, 4), poolShapes(2, 5)...) {
		spec := genSpec(newRand(1, streamPool), slot)
		cc, err := spec.Compile()
		if err != nil {
			t.Fatalf("%+v: %v", slot, err)
		}
		if cc.LogGates() != slot.logGates {
			t.Fatalf("%+v compiled to 2^%d rows", slot, cc.LogGates())
		}
	}
}

func TestApportion(t *testing.T) {
	w := zipfWeights(16, 1)
	for _, n := range []int{0, 1, 7, 64, 1000} {
		c := apportion(n, w)
		total := 0
		for _, v := range c {
			total += v
		}
		if total != n {
			t.Fatalf("apportion(%d) sums to %d", n, total)
		}
		if !sort.SliceIsSorted(c, func(i, j int) bool { return c[i] > c[j] }) {
			t.Fatalf("apportion(%d) = %v is not monotone in rank", n, c)
		}
	}
}

func TestRequestsDeterministicWithFixedMakeup(t *testing.T) {
	a := genRequests(1, 4, 20, 16)
	b := genRequests(1, 4, 20, 16)
	c := genRequests(2, 4, 20, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 80 {
		t.Fatalf("%d requests, want rate·span = 80", len(a))
	}
	makeup := func(rs []request) map[[2]int]int {
		m := map[[2]int]int{}
		for _, r := range rs {
			m[[2]int{int(r.kind), r.circuit}]++
		}
		return m
	}
	if !reflect.DeepEqual(makeup(a), makeup(c)) {
		t.Fatal("the request make-up must not depend on the seed")
	}
	for i, r := range a {
		if r.at < 0 || r.at >= 20 || (i > 0 && r.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, 20)", i, r.at)
		}
	}
}
