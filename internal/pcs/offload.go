package pcs

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"zkphire/internal/curve"
	"zkphire/internal/faultinject"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/spill"
)

// The offloaded-SRS backing layer. Offload spills the large commitment-basis
// levels to an internal/spill store and serves them back on demand through a
// bounded cache:
//
//   - whole levels that fit half the cache budget load with single-flight
//     fetch per level, pin while in use, and evict LRU when the resident
//     bytes exceed the budget;
//   - larger levels never materialize: the MSM paths stream fixed-size basis
//     chunks through arena scratch, computing each chunk's GLV φ-table on
//     the fly (curve.EndoPointsInto).
//
// Group addition is exact and associative and FromJacobian is canonical, so
// every chunked MSM below produces the commitment byte-identical to the
// in-core path regardless of chunk geometry, cache state, or worker budget.

// smallLevelElems is the largest level kept resident by Offload: levels of
// at most 2^12 points total under ~1.3 MB across the whole SRS, and the
// opening chain's deep levels would otherwise pay an I/O round trip for
// microscopic MSMs.
const smallLevelElems = 1 << 12

// pointBytes is the on-disk size of one basis point: X and Y limbs
// little-endian plus an infinity flag.
const pointBytes = 2*fp.Limbs*8 + 1

// pointMemBytes/endoMemBytes approximate the in-RAM cost per cached basis
// point (G1Affine with padding, and its φ-table x-coordinate).
const (
	pointMemBytes = 104
	endoMemBytes  = 48
)

type levelEntry struct {
	pts  []curve.G1Affine
	endo []fp.Element
	pins int
	use  int64
	// flight is the in-progress load, if any: concurrent acquirers of a
	// missing level share one fetch. The flight is removed the moment the
	// load settles — on failure the error reaches only the callers that
	// were already waiting on that attempt, and the next caller starts a
	// fresh load. An error result is never cached: a transient spill read
	// failure must not poison the level for the life of the process.
	flight *levelFlight
}

// levelFlight is one single-flight load of an offloaded level.
type levelFlight struct {
	done chan struct{}
	err  error
}

type backing struct {
	store       *spill.Store
	ownStore    bool
	cacheBudget int64
	chunkElems  int

	mu       sync.Mutex
	lev      []levelEntry
	tick     int64
	resident int64
}

func levelMemBytes(k int) int64 {
	return int64(pointMemBytes+endoMemBytes) << uint(k)
}

// Offload spills every commitment-basis level larger than smallLevelElems
// points into a spill store rooted at dir (empty = a private temp directory)
// and frees the in-RAM copies, including their cached φ-tables. Afterwards
// the SRS serves basis data through a cache bounded by cacheBudget bytes;
// all commit/open paths work unchanged and produce byte-identical results.
//
// Offload is idempotent (the first call's parameters win) and must not run
// concurrently with proofs on this SRS: callers offload before proving.
// The backing files live until CloseBacking or process exit.
func (s *SRS) Offload(dir string, cacheBudget int64) error {
	if s.back != nil {
		return nil
	}
	const minCacheBudget = 1 << 20
	if cacheBudget < minCacheBudget {
		cacheBudget = minCacheBudget
	}
	store, err := spill.NewStore(dir)
	if err != nil {
		return err
	}
	b := &backing{store: store, ownStore: true, cacheBudget: cacheBudget, lev: make([]levelEntry, len(s.Levels))}
	b.chunkElems = chunkElemsFor(cacheBudget)
	for k := range s.Levels {
		if len(s.Levels[k]) <= smallLevelElems {
			continue
		}
		if err := b.writeLevel(k, s.Levels[k]); err != nil {
			store.Close()
			return err
		}
	}
	// Point of no return: drop the in-RAM levels and their φ-tables.
	s.endoMu.Lock()
	for k := range s.Levels {
		if len(s.Levels[k]) > smallLevelElems {
			s.Levels[k] = nil
			if s.endo != nil {
				s.endo[k] = nil
			}
		}
	}
	s.endoMu.Unlock()
	s.back = b
	return nil
}

// Backed reports whether Offload has run.
func (s *SRS) Backed() bool { return s.back != nil }

// CloseBacking removes the backing store. The SRS can no longer serve
// offloaded levels afterwards — only for teardown in tests and short-lived
// processes that own the SRS outright.
func (s *SRS) CloseBacking() error {
	if s.back == nil {
		return nil
	}
	b := s.back
	s.back = nil
	if b.ownStore {
		return b.store.Close()
	}
	return nil
}

// chunkElemsFor sizes the streamed-MSM basis chunk so one chunk's points,
// φ-table, and staging bytes stay well inside the cache budget: an eighth
// of the budget, clamped to [2^12, 2^20] points.
func chunkElemsFor(cacheBudget int64) int {
	n := cacheBudget / 8 / (pointMemBytes + endoMemBytes)
	if n < 1<<12 {
		n = 1 << 12
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return int(n)
}

func levelKey(k int) string { return fmt.Sprintf("srs/L%02d", k) }

// writeLevel spills one level's points.
func (b *backing) writeLevel(k int, pts []curve.G1Affine) error {
	w, err := b.store.Create(nil, levelKey(k))
	if err != nil {
		return err
	}
	const stagePts = 4096
	stage := make([]byte, 0, stagePts*pointBytes)
	for off := 0; off < len(pts); off += stagePts {
		end := off + stagePts
		if end > len(pts) {
			end = len(pts)
		}
		stage = stage[:0]
		for i := off; i < end; i++ {
			stage = appendPoint(stage, &pts[i])
		}
		if _, err := w.Write(stage); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

func appendPoint(dst []byte, p *curve.G1Affine) []byte {
	for l := 0; l < fp.Limbs; l++ {
		dst = binary.LittleEndian.AppendUint64(dst, p.X[l])
	}
	for l := 0; l < fp.Limbs; l++ {
		dst = binary.LittleEndian.AppendUint64(dst, p.Y[l])
	}
	if p.Infinity {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodePoint(src []byte, p *curve.G1Affine) {
	for l := 0; l < fp.Limbs; l++ {
		p.X[l] = binary.LittleEndian.Uint64(src[l*8:])
	}
	for l := 0; l < fp.Limbs; l++ {
		p.Y[l] = binary.LittleEndian.Uint64(src[(fp.Limbs+l)*8:])
	}
	p.Infinity = src[2*fp.Limbs*8] != 0
}

// readPointsRange decodes level k's points [off, off+len(dst)) from the
// store into dst.
func (b *backing) readPointsRange(ctx context.Context, k, off int, dst []curve.G1Affine) error {
	const stagePts = 4096
	stage := make([]byte, stagePts*pointBytes)
	for len(dst) > 0 {
		n := len(dst)
		if n > stagePts {
			n = stagePts
		}
		buf := stage[:n*pointBytes]
		if err := faultinject.Hit("pcs.offload.read"); err != nil {
			return fmt.Errorf("pcs: offload read level %d: %w", k, err)
		}
		if err := b.store.ReadAt(ctx, levelKey(k), int64(off)*pointBytes, buf); err != nil {
			return fmt.Errorf("pcs: offload read level %d: %w", k, err)
		}
		for i := 0; i < n; i++ {
			decodePoint(buf[i*pointBytes:], &dst[i])
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// acquireLevel returns level k's full basis and φ-table, loading it into the
// cache if needed (single-flight per level) and pinning it against eviction
// until release is called. Resident (never-offloaded) levels return the
// shared in-RAM slices with a no-op release.
//
// Failure semantics: a load error reaches the caller that ran the load and
// every caller that joined that flight, but it is never cached — the flight
// is cleared before the error is delivered, so the next acquire starts a
// fresh read from the store. A transient spill I/O error therefore costs
// one failed attempt, not the level.
func (s *SRS) acquireLevel(ctx context.Context, k, workers int) (pts []curve.G1Affine, endo []fp.Element, release func(), err error) {
	if s.Levels[k] != nil {
		return s.Levels[k], s.EndoPoints(k, workers), func() {}, nil
	}
	b := s.back
	if b == nil {
		return nil, nil, nil, fmt.Errorf("pcs: level %d is neither resident nor backed", k)
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	var f *levelFlight
	b.mu.Lock()
	for {
		e := &b.lev[k]
		if e.pts != nil {
			e.pins++
			b.tick++
			e.use = b.tick
			pts, endo = e.pts, e.endo
			b.mu.Unlock()
			return pts, endo, func() { b.unpin(k) }, nil
		}
		if e.flight == nil {
			f = &levelFlight{done: make(chan struct{})}
			e.flight = f
			break // this caller runs the load
		}
		joined := e.flight
		b.mu.Unlock()
		//zkvet:ignore determinism flight-join wait; the loaded basis is identical whichever case wins, and the ctx arm only aborts an already-cancelled proof
		select {
		case <-joined.done:
			if joined.err != nil {
				return nil, nil, nil, joined.err
			}
		case <-ctxDone:
			return nil, nil, nil, ctx.Err()
		}
		b.mu.Lock() // loaded: loop back around and pin it
	}
	b.mu.Unlock()

	n := 1 << uint(k)
	loaded := make([]curve.G1Affine, n)
	err = b.readPointsRange(ctx, k, 0, loaded)
	var endoT []fp.Element
	if err == nil {
		endoT = curve.EndoPointsWorkers(loaded, workers)
	}

	b.mu.Lock()
	e := &b.lev[k]
	e.flight = nil // success or failure, the flight is over — never cached
	if err != nil {
		f.err = err
		close(f.done)
		b.mu.Unlock()
		return nil, nil, nil, err
	}
	e.pts, e.endo = loaded, endoT
	e.pins = 1
	b.tick++
	e.use = b.tick
	b.resident += levelMemBytes(k)
	b.evictLocked()
	close(f.done)
	b.mu.Unlock()
	return loaded, endoT, func() { b.unpin(k) }, nil
}

func (b *backing) unpin(k int) {
	b.mu.Lock()
	b.lev[k].pins--
	b.evictLocked()
	b.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned levels until the resident
// bytes fit the budget. Caller holds b.mu.
func (b *backing) evictLocked() {
	for b.resident > b.cacheBudget {
		victim := -1
		var oldest int64
		for k := range b.lev {
			e := &b.lev[k]
			if e.pts == nil || e.pins > 0 {
				continue
			}
			if victim < 0 || e.use < oldest {
				victim, oldest = k, e.use
			}
		}
		if victim < 0 {
			return
		}
		b.lev[victim].pts = nil
		b.lev[victim].endo = nil
		b.resident -= levelMemBytes(victim)
	}
}

// readBasisEndoRange fills pts and endoOut with offloaded level k's basis
// points [off, off+len(pts)) and their φ-table, serving from the cache when
// the level happens to be loaded and streaming from the store otherwise.
func (s *SRS) readBasisEndoRange(ctx context.Context, k, off int, pts []curve.G1Affine, endoOut []fp.Element, workers int) error {
	b := s.back
	b.mu.Lock()
	e := &b.lev[k]
	if e.pts != nil {
		e.pins++
		b.tick++
		e.use = b.tick
		src, srcEndo := e.pts, e.endo
		b.mu.Unlock()
		copy(pts, src[off:])
		copy(endoOut, srcEndo[off:])
		b.unpin(k)
		return nil
	}
	b.mu.Unlock()
	if err := b.readPointsRange(ctx, k, off, pts); err != nil {
		return err
	}
	curve.EndoPointsInto(endoOut, pts, workers)
	return nil
}

// Arena pools for chunk-streamed basis points and φ-tables: one chunk of
// scratch per in-flight streamed MSM, reused across chunks and calls.
var (
	basisArena parallel.Arena[curve.G1Affine]
	endoArena  parallel.Arena[fp.Element]
)

// msmRangeCtx computes Σ_i scalars[i] · Levels[k][off+i] without ever
// materializing more of an offloaded level than the cache policy allows:
// levels that fit half the cache budget are acquired whole (and stay for
// the next call); larger levels stream chunk by chunk through arena
// scratch. sparse routes each MSM through the sparse path when its scalar
// segment is mostly 0/1 (the routing never changes the group result).
func (s *SRS) msmRangeCtx(ctx context.Context, k, off int, scalars []ff.Element, workers int, sparse bool) (curve.G1Jac, error) {
	b := s.back
	if s.Levels[k] != nil || b == nil || levelMemBytes(k) <= b.cacheBudget/2 {
		pts, endo, release, err := s.acquireLevel(ctx, k, workers)
		if err != nil {
			var zero curve.G1Jac
			return zero, err
		}
		defer release()
		return msmSegmentCtx(ctx, pts[off:off+len(scalars)], endo[off:off+len(scalars)], scalars, workers, sparse)
	}

	var acc curve.G1Jac
	acc.SetInfinity()
	chunk := b.chunkElems
	pts := basisArena.Get(chunk)
	endo := endoArena.Get(chunk)
	defer basisArena.Put(pts)
	defer endoArena.Put(endo)
	for lo := 0; lo < len(scalars); lo += chunk {
		hi := lo + chunk
		if hi > len(scalars) {
			hi = len(scalars)
		}
		n := hi - lo
		if err := s.readBasisEndoRange(ctx, k, off+lo, pts[:n], endo[:n], workers); err != nil {
			var zero curve.G1Jac
			return zero, err
		}
		part, err := msmSegmentCtx(ctx, pts[:n], endo[:n], scalars[lo:hi], workers, sparse)
		if err != nil {
			var zero curve.G1Jac
			return zero, err
		}
		acc.AddAssign(&part)
	}
	return acc, nil
}

// msmSegmentCtx is one MSM over an explicit basis segment, optionally
// routed by the segment's own sparsity.
func msmSegmentCtx(ctx context.Context, pts []curve.G1Affine, endo []fp.Element, scalars []ff.Element, workers int, sparse bool) (curve.G1Jac, error) {
	if sparse && mle.AnalyzeSparsitySlice(scalars, workers).DenseFraction() < 0.5 {
		return curve.SparseMSMEndoWorkersCtx(ctx, pts, endo, scalars, workers)
	}
	return curve.MSMEndoWorkersCtx(ctx, pts, endo, scalars, workers)
}

// commitBacked is the commit path for offloaded levels: the table streams
// through msmRangeCtx in bounded chunks, each chunk routed by its own
// sparsity (preprocessing's 0/1 selector tables stay on the sparse path).
func (s *SRS) commitBacked(ctx context.Context, t *mle.Table, workers int) (Commitment, error) {
	acc, err := s.msmRangeCtx(ctx, t.NumVars, 0, t.Evals, workers, true)
	if err != nil {
		return Commitment{}, err
	}
	var aff curve.G1Affine
	aff.FromJacobian(&acc)
	return Commitment{Point: aff, NumVars: t.NumVars}, nil
}
