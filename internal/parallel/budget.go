package parallel

import (
	"context"
	"fmt"
	"sync"
)

// Budget is a leasable pool of workers shared by concurrent coarse tasks —
// the serving layer's in-flight proofs and preprocessing runs. Where Split
// statically divides a budget among k sub-tasks that are all known up
// front, a Budget tracks a *changing* set of tenants: each task Acquires a
// lease before running its kernels and Releases it when done (or when its
// context is cancelled), so the whole process never runs more than Total
// workers' worth of parallel loops at once, no matter how requests overlap.
//
// Acquire blocks until the requested workers are free, honouring context
// cancellation, and grants are FIFO-fair: a large request parked at the
// head of the queue is not starved by a stream of small ones.
type Budget struct {
	mu    sync.Mutex
	total int
	inUse int
	// leases counts granted-but-unreleased Lease values — the invariant
	// the service's leak tests pin to zero after faults and panics.
	leases int
	// waiters is a FIFO of blocked Acquire calls; each is woken (channel
	// closed) when it is at the head and its request fits.
	waiters []*waiter
}

type waiter struct {
	n   int // minimum workers the request needs
	max int // most it can use; the grant tops up to this from free capacity
	// granted is the actual grant, set (under the budget mutex) before ready
	// is closed.
	granted int
	ready   chan struct{}
}

// NewBudget returns a budget of `total` leasable workers (<= 0 means
// GOMAXPROCS, matching Workers).
func NewBudget(total int) *Budget {
	return &Budget{total: Workers(total)}
}

// Total returns the budget's worker capacity.
func (b *Budget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// InUse returns the number of workers currently leased.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// clamp bounds a request to [1, total] so a lease is always grantable:
// callers ask for their fair share and the budget turns degenerate
// requests (0, negative, or more than the machine) into sane ones.
func (b *Budget) clamp(n int) int {
	if n < 1 {
		n = 1
	}
	if n > b.total {
		n = b.total
	}
	return n
}

// TryAcquire leases n workers (clamped to [1, Total]) if they are free
// right now, returning nil without blocking when they are not.
func (b *Budget) TryAcquire(n int) *Lease {
	b.mu.Lock()
	defer b.mu.Unlock()
	n = b.clamp(n)
	if len(b.waiters) > 0 || b.inUse+n > b.total {
		return nil
	}
	b.inUse += n
	b.leases++
	return &Lease{b: b, n: n}
}

// OutstandingLeases returns the number of leases granted and not yet
// released. A quiesced system must report 0: the service's fault and
// chaos tests assert it after injected panics, cancellations, and
// crashes, because a leaked lease silently shrinks the machine for every
// job that follows.
func (b *Budget) OutstandingLeases() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.leases
}

// Acquire leases n workers (clamped to [1, Total]), blocking until they
// are free or ctx is done. The returned lease MUST be released exactly
// once; Release is idempotent so `defer lease.Release()` is always safe.
func (b *Budget) Acquire(ctx context.Context, n int) (*Lease, error) {
	return b.AcquireUpTo(ctx, n, n)
}

// AcquireUpTo leases between min and max workers: it blocks until min are
// free (FIFO-fair, honouring ctx), then tops the grant up with whatever
// additional capacity is free at that moment, capped at max, so a task can
// make progress with its minimum while others still hold the rest, without
// ever oversubscribing the budget. Acquire is the min == max case.
// Lease.Workers reports the actual grant.
func (b *Budget) AcquireUpTo(ctx context.Context, min, max int) (*Lease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.Lock()
	min = b.clamp(min)
	max = b.clamp(max)
	if max < min {
		max = min
	}
	if len(b.waiters) == 0 && b.inUse+min <= b.total {
		n := b.total - b.inUse
		if n > max {
			n = max
		}
		b.inUse += n
		b.leases++
		b.mu.Unlock()
		return &Lease{b: b, n: n}, nil
	}
	w := &waiter{n: min, max: max, ready: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()

	select {
	case <-w.ready:
		return &Lease{b: b, n: w.granted}, nil
	case <-ctx.Done():
		b.mu.Lock()
		defer b.mu.Unlock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: the workers were already
			// counted against the budget, so hand them straight back.
			b.inUse -= w.granted
			b.leases--
			b.wake()
			return nil, ctx.Err()
		default:
		}
		for i, q := range b.waiters {
			if q == w {
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				break
			}
		}
		return nil, ctx.Err()
	}
}

// wake grants queued requests from the head while their minimum fits,
// topping each grant up to its max from the capacity left after the
// minimum is reserved. Caller holds mu.
func (b *Budget) wake() {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		if b.inUse+w.n > b.total {
			return
		}
		g := b.total - b.inUse
		if g > w.max {
			g = w.max
		}
		w.granted = g
		b.inUse += g
		b.leases++
		b.waiters = b.waiters[1:]
		close(w.ready)
	}
}

// Lease is a claim on part of a Budget. Workers is the granted count —
// the budget to pass into the prover's parallel kernels.
type Lease struct {
	b    *Budget
	n    int
	once sync.Once
}

// Workers returns the number of workers this lease grants.
func (l *Lease) Workers() int { return l.n }

// Release returns the lease's workers to the budget. Idempotent.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.once.Do(func() {
		l.b.mu.Lock()
		l.b.inUse -= l.n
		l.b.leases--
		l.b.wake()
		l.b.mu.Unlock()
	})
}

// String describes the budget state for logs and error messages.
func (b *Budget) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fmt.Sprintf("budget{%d/%d in use, %d waiting}", b.inUse, b.total, len(b.waiters))
}
