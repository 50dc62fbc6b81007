package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"zkphire"
	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/service"
	"zkphire/internal/sumcheck"
)

// Every input the benchmark feeds the program comes from the workload
// seed. Each use draws from its own stream so that, say, resizing the
// circuit pool does not shift the arrival times.
const (
	streamProgram uint64 = iota + 1
	streamTables
	streamPool
	streamRequests
	streamChallenges
)

// The generated load's fixed shape: the share of a circuit's rows its
// program fills, the Zipf exponent of circuit popularity, and the shares
// of the serving requests that replay a settled key or verify a proof.
const (
	fill       = 0.9
	zipfS      = 1.0
	replayFrac = 0.1
	verifyFrac = 0.1
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// denseElement returns a full-width field element: a·K₁ + b·K₂ for
// random 64-bit a, b and fixed 255-bit constants. Cheaper than a uniform
// draw through big.Int, and just as dense for kernel timing.
func denseElement(r *rand.Rand) ff.Element {
	var a, b ff.Element
	a.SetUint64(r.Uint64())
	b.SetUint64(r.Uint64())
	a.Mul(&a, &denseK1)
	b.Mul(&b, &denseK2)
	a.Add(&a, &b)
	return a
}

var denseK1, denseK2 = func() (ff.Element, ff.Element) {
	k1 := ff.NewElement(0x9e3779b97f4a7c15)
	k2 := ff.NewElement(0xc2b2ae3d27d4eb4f)
	k1.ExpUint64(&k1, 7)
	k2.ExpUint64(&k2, 11)
	return k1, k2
}()

func denseElements(r *rand.Rand, n int) []ff.Element {
	out := make([]ff.Element, n)
	for i := range out {
		out[i] = denseElement(r)
	}
	return out
}

// arithOp is one gate of a generated straight-line program. Operand
// indexes refer to earlier outputs (secrets first, then gate outputs).
type arithOp struct {
	mul  bool
	a, b int
}

// vanillaProgram is a seeded program of add and mul gates filling
// fill·2^logGates rows over numSecrets dense secret inputs. Operands are
// drawn from a recent window, so values stay dense and copy constraints
// connect rows across the whole table.
type vanillaProgram struct {
	secrets []ff.Element
	ops     []arithOp
}

func genVanillaProgram(seed int64, logGates int) vanillaProgram {
	r := newRand(seed, streamProgram)
	const numSecrets, window = 64, 1024
	p := vanillaProgram{secrets: denseElements(r, numSecrets)}
	rows := int(fill * float64(int(1)<<logGates))
	p.ops = make([]arithOp, rows)
	for i := range p.ops {
		wires := numSecrets + i
		lo := max(0, wires-window)
		p.ops[i] = arithOp{mul: r.IntN(2) == 0, a: lo + r.IntN(wires-lo), b: lo + r.IntN(wires-lo)}
	}
	return p
}

// builder replays the program onto the public API.
func (p vanillaProgram) builder() *zkphire.CircuitBuilder {
	b := zkphire.NewCircuitBuilder()
	w := make([]zkphire.Wire, 0, len(p.secrets)+len(p.ops))
	for _, s := range p.secrets {
		w = append(w, b.SecretElement(s))
	}
	for _, op := range p.ops {
		if op.mul {
			w = append(w, b.Mul(w[op.a], w[op.b]))
		} else {
			w = append(w, b.Add(w[op.a], w[op.b]))
		}
	}
	return b
}

// circuit replays the program onto the gates layer, yielding the same
// circuit the public builder compiles; the per-step replay needs its
// tables, which the public API keeps private.
func (p vanillaProgram) circuit(logGates int) (*gates.Circuit, error) {
	b := gates.NewVanillaBuilder()
	w := make([]gates.Variable, 0, len(p.secrets)+len(p.ops))
	for _, s := range p.secrets {
		w = append(w, b.NewVariable(s))
	}
	for _, op := range p.ops {
		if op.mul {
			w = append(w, b.Mul(w[op.a], w[op.b]))
		} else {
			w = append(w, b.Add(w[op.a], w[op.b]))
		}
	}
	return b.Build(logGates)
}

// tableIInputs builds one assignment per Table I constraint at 2^logN
// rows, each table shaped to its constituent's role: selectors are 0/1,
// eq tables are eq(·, r) for a random r, and the rest are dense.
func tableIInputs(seed int64, logN int) ([]*sumcheck.Assignment, error) {
	r := newRand(seed, streamTables)
	n := 1 << logN
	var out []*sumcheck.Assignment
	for _, c := range poly.AllRegistered() {
		tabs := make([]*mle.Table, c.NumVars())
		for i := range tabs {
			switch c.Roles[i] {
			case poly.RoleEq:
				tabs[i] = mle.Eq(denseElements(r, logN))
			case poly.RoleSelector:
				ev := make([]ff.Element, n)
				for j := range ev {
					if r.IntN(2) == 1 {
						ev[j] = ff.One()
					}
				}
				tabs[i] = mle.FromEvals(ev)
			default:
				tabs[i] = mle.FromEvals(denseElements(r, n))
			}
		}
		a, err := sumcheck.NewAssignment(c, tabs)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// poolSlot fixes one serving circuit's shape. Shapes are the same for
// every seed, so the work mix does not drift between seeds; the seed
// picks the program inside each shape.
type poolSlot struct {
	jellyfish bool
	logGates  int
}

func poolShapes(size, logGates int) []poolSlot {
	out := make([]poolSlot, size)
	for i := range out {
		out[i] = poolSlot{jellyfish: i%2 == 1, logGates: logGates}
	}
	return out
}

// genSpec is a seeded serving circuit: secrets, then random gates filling
// fill·2^logGates rows (add/mul; Jellyfish adds power5 and double_mul).
func genSpec(r *rand.Rand, slot poolSlot) service.CircuitSpec {
	spec := service.CircuitSpec{LogGates: slot.logGates}
	if slot.jellyfish {
		spec.Arithmetization = "jellyfish"
	}
	const numSecrets, window = 8, 256
	for i := 0; i < numSecrets; i++ {
		spec.Program = append(spec.Program, service.Op{Op: "secret", K: 2 + r.Uint64N(1<<40)})
	}
	pick := func(wires int) int {
		lo := max(0, wires-window)
		return lo + r.IntN(wires-lo)
	}
	rows := int(fill * float64(int(1)<<slot.logGates))
	for g := 0; g < rows; g++ {
		wires := numSecrets + g
		op := service.Op{A: pick(wires), B: pick(wires)}
		kinds := 2
		if slot.jellyfish {
			kinds = 4
		}
		switch r.IntN(kinds) {
		case 0:
			op.Op = "add"
		case 1:
			op.Op = "mul"
		case 2:
			op.Op, op.B = "power5", 0
		case 3:
			op.Op, op.D, op.E = "double_mul", pick(wires), pick(wires)
		}
		spec.Program = append(spec.Program, op)
	}
	return spec
}

// zipfWeights returns P(k) ∝ 1/(k+1)^s for ranks 0..n-1.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	for k := range w {
		w[k] /= total
	}
	return w
}

// apportion splits n into integer counts proportional to weights by the
// largest-remainder method; the counts always sum to n.
func apportion(n int, weights []float64) []int {
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w * float64(n)
		counts[i] = int(math.Floor(exact))
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i%len(order)]]++
	}
	return counts
}

// arrivals returns n Poisson arrival offsets (seconds) in [0, span): n
// exponential gaps rescaled so the last arrival lands before span. That
// is a Poisson process conditioned on n arrivals, so every seed offers
// the same load with different burst patterns.
func arrivals(r *rand.Rand, n int, span float64) []float64 {
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	out := make([]float64, n)
	var t float64
	for i := 0; i < n; i++ {
		t += gaps[i]
		out[i] = t / total * span
	}
	return out
}

type opKind int

const (
	opProve  opKind = iota // /prove with a fresh idempotency key
	opReplay               // /prove repeating a settled key
	opVerify               // /verify of an earlier proof
)

func (k opKind) String() string {
	return [...]string{"prove", "replay", "verify"}[k]
}

// request is one scheduled operation of the serving load.
type request struct {
	at      float64 // seconds after the run starts
	kind    opKind
	circuit int    // pool slot, which is also its popularity rank
	pick    uint64 // chooses the settled key a replay repeats
}

// genRequests builds the seeded open-loop schedule: rate·span Poisson
// arrivals carrying a shuffled sequence whose make-up is fixed — exactly
// the replay and verify shares, and per kind, circuit counts apportioned
// by the Zipf popularity. The seed moves the arrival times and the order,
// not the amount of work.
func genRequests(seed int64, rate, span float64, poolSize int) []request {
	r := newRand(seed, streamRequests)
	n := max(1, int(math.Round(rate*span)))
	nReplay := int(math.Round(float64(n) * replayFrac))
	nVerify := int(math.Round(float64(n) * verifyFrac))
	w := zipfWeights(poolSize, zipfS)
	var out []request
	for kind, count := range []int{n - nReplay - nVerify, nReplay, nVerify} {
		for slot, c := range apportion(count, w) {
			for j := 0; j < c; j++ {
				out = append(out, request{kind: opKind(kind), circuit: slot})
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	at := arrivals(r, n, span)
	for i := range out {
		out[i].at = at[i]
		out[i].pick = r.Uint64()
	}
	return out
}
