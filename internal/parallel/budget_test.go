package parallel

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBudgetAcquireRelease(t *testing.T) {
	b := NewBudget(4)
	if b.Total() != 4 {
		t.Fatalf("Total = %d, want 4", b.Total())
	}
	l1, err := b.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Workers() != 3 || b.InUse() != 3 {
		t.Fatalf("lease %d workers, in use %d; want 3, 3", l1.Workers(), b.InUse())
	}
	// A second acquire that fits proceeds immediately.
	l2, err := b.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.InUse() != 4 {
		t.Fatalf("in use %d, want 4", b.InUse())
	}
	// Requests are clamped: 0 becomes 1, over-Total becomes Total.
	if l := b.TryAcquire(0); l != nil {
		t.Fatal("TryAcquire(0) should fail with a full budget")
	}
	l1.Release()
	l1.Release() // idempotent
	if b.InUse() != 1 {
		t.Fatalf("in use %d after releases, want 1", b.InUse())
	}
	// Oversized requests clamp to Total: with one worker still leased a
	// clamped-to-4 request cannot fit…
	if l := b.TryAcquire(99); l != nil {
		t.Fatal("TryAcquire(99) should not fit with 1 worker leased")
	}
	l2.Release()
	// …but it grants the whole budget once everything is free.
	l4 := b.TryAcquire(99)
	if l4 == nil || l4.Workers() != 4 {
		t.Fatalf("TryAcquire(99) = %v, want a 4-worker lease", l4)
	}
	l4.Release()
}

func TestBudgetBlocksUntilRelease(t *testing.T) {
	b := NewBudget(2)
	l1, err := b.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Lease)
	go func() {
		l, err := b.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		got <- l
	}()
	select {
	case <-got:
		t.Fatal("acquire should have blocked on a full budget")
	case <-time.After(20 * time.Millisecond):
	}
	l1.Release()
	select {
	case l := <-got:
		l.Release()
	case <-time.After(time.Second):
		t.Fatal("release did not wake the waiter")
	}
	if b.InUse() != 0 {
		t.Fatalf("in use %d, want 0", b.InUse())
	}
}

func TestBudgetAcquireCancellation(t *testing.T) {
	b := NewBudget(1)
	l1, _ := b.Acquire(context.Background(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Acquire(ctx, 1)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelled waiter must not leak budget: releasing l1 leaves an
	// empty pool.
	l1.Release()
	if b.InUse() != 0 {
		t.Fatalf("in use %d after cancelled waiter, want 0", b.InUse())
	}
	// And the budget still grants.
	l2, err := b.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	l2.Release()
}

func TestBudgetFIFOFairness(t *testing.T) {
	b := NewBudget(2)
	l1, _ := b.Acquire(context.Background(), 2)

	order := make(chan int, 2)
	var ready sync.WaitGroup
	ready.Add(1)
	go func() { // first waiter: wants the whole budget
		ready.Done()
		l, err := b.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
			return
		}
		order <- 1
		l.Release()
	}()
	ready.Wait()
	time.Sleep(10 * time.Millisecond) // let waiter 1 park first
	go func() {                       // second waiter: small request behind the big one
		l, err := b.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
			return
		}
		order <- 2
		l.Release()
	}()
	time.Sleep(10 * time.Millisecond)
	l1.Release()
	if first := <-order; first != 1 {
		t.Fatalf("waiter %d granted first; want the FIFO head (1)", first)
	}
	<-order
}

func TestBudgetConcurrentStress(t *testing.T) {
	b := NewBudget(3)
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxSeen := 0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			l, err := b.Acquire(context.Background(), 1+n%3)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if u := b.InUse(); u > maxSeen {
				maxSeen = u
			}
			mu.Unlock()
			l.Release()
		}(i)
	}
	wg.Wait()
	if b.InUse() != 0 {
		t.Fatalf("in use %d after all releases, want 0", b.InUse())
	}
	if maxSeen > 3 {
		t.Fatalf("budget oversubscribed: saw %d in use, cap 3", maxSeen)
	}
}

func TestOutstandingLeases(t *testing.T) {
	b := NewBudget(4)
	if n := b.OutstandingLeases(); n != 0 {
		t.Fatalf("fresh budget reports %d leases", n)
	}
	l1, _ := b.Acquire(context.Background(), 2)
	l2 := b.TryAcquire(1)
	if n := b.OutstandingLeases(); n != 2 {
		t.Fatalf("outstanding = %d, want 2", n)
	}
	l1.Release()
	l1.Release() // idempotent: must not double-decrement
	if n := b.OutstandingLeases(); n != 1 {
		t.Fatalf("outstanding after release = %d, want 1", n)
	}
	l2.Release()
	if n := b.OutstandingLeases(); n != 0 {
		t.Fatalf("outstanding after all releases = %d, want 0", n)
	}

	// A grant that races its context's cancellation is handed straight
	// back and never counts as outstanding.
	l3, _ := b.Acquire(context.Background(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if l, err := b.Acquire(ctx, 1); err == nil {
			l.Release()
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the acquire park
	cancel()
	<-done
	l3.Release()
	if n := b.OutstandingLeases(); n != 0 {
		t.Fatalf("outstanding after cancelled waiter = %d, want 0", n)
	}
}

func TestAcquireUpTo(t *testing.T) {
	b := NewBudget(4)
	l1, err := b.AcquireUpTo(nil, 1, 3)
	if err != nil || l1.Workers() != 3 {
		t.Fatalf("first AcquireUpTo(1,3) = %d workers, err %v; want 3", l1.Workers(), err)
	}
	// 1 free: min fits, grant tops out at the free capacity.
	l2, err := b.AcquireUpTo(nil, 1, 4)
	if err != nil || l2.Workers() != 1 {
		t.Fatalf("second AcquireUpTo(1,4) = %d workers, err %v; want 1", l2.Workers(), err)
	}
	// Nothing free: a min=2 request parks until a release, then tops up.
	done := make(chan int)
	go func() {
		l3, err := b.AcquireUpTo(context.Background(), 2, 4)
		if err != nil {
			t.Error(err)
			done <- -1
			return
		}
		n := l3.Workers()
		l3.Release()
		done <- n
	}()
	select {
	case n := <-done:
		t.Fatalf("blocked AcquireUpTo returned %d before capacity freed", n)
	case <-time.After(10 * time.Millisecond):
	}
	l1.Release()
	if n := <-done; n != 3 {
		t.Fatalf("woken AcquireUpTo granted %d, want 3 (min 2 topped up to free capacity)", n)
	}
	l2.Release()
	if b.InUse() != 0 {
		t.Fatalf("budget not drained: %s", b)
	}
}
