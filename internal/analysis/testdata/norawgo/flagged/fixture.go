// Package fixture spawns raw goroutines outside internal/parallel;
// both the loop and non-loop forms are findings, and holding a
// parallel.Budget lease is no exemption — the lease sizes the work, the
// spawn still escapes the engine.
package fixture

import (
	"context"

	"zkphire/internal/parallel"
)

func spawn(done chan struct{}) {
	go func() { close(done) }() // want "raw go statement outside internal/parallel"
}

func spawnLoop(ch chan int) {
	for i := 0; i < 4; i++ {
		go func() { ch <- i }() // want "goroutine spawned in a loop outside internal/parallel"
	}
}

func leasedSpawn(ctx context.Context, budget *parallel.Budget, out chan<- int) error {
	lease, err := budget.Acquire(ctx, 1)
	if err != nil {
		return err
	}
	go func() { // want "raw go statement outside internal/parallel"
		defer lease.Release()
		out <- lease.Workers()
	}()
	return nil
}

func leasedFanOut(ctx context.Context, budget *parallel.Budget, vs []int, out chan<- int) error {
	lease, err := budget.Acquire(ctx, len(vs))
	if err != nil {
		return err
	}
	defer lease.Release()
	for _, v := range vs {
		go func() { out <- v * lease.Workers() }() // want "goroutine spawned in a loop outside internal/parallel"
	}
	return nil
}
