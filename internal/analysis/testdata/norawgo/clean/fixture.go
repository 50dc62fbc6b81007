// Package fixture shows the sanctioned concurrency patterns outside
// internal/parallel: coarse fan-out via parallel.Run, chunked loops via
// parallel.For (every goroutine is spawned inside the engine against its
// worker budget), and Budget leases sizing that work. None of these are
// findings.
package fixture

import (
	"context"

	"zkphire/internal/parallel"
)

// leasedFanOut leases workers from a shared budget and spends them on
// one coarse task per item — bounded concurrency without a single go
// statement in this package.
func leasedFanOut(ctx context.Context, budget *parallel.Budget, items []int) ([]int, error) {
	lease, err := budget.AcquireUpTo(ctx, 1, len(items))
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	out := make([]int, len(items))
	parallel.Run(lease.Workers(), len(items), func(i int) {
		out[i] = items[i] * items[i]
	})
	return out, nil
}

// chunkedSum splits a loop across the budget; the engine owns the spawns.
func chunkedSum(workers int, vs []int) int {
	partial := make([]int, len(vs))
	parallel.For(workers, len(vs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			partial[i] = vs[i] + 1
		}
	})
	sum := 0
	for _, p := range partial {
		sum += p
	}
	return sum
}
