package nn

// Float32 inference storage mode — the one deliberately tolerance-bounded
// fast path in the engine. While active, MLP.ForwardInference runs its whole
// layer chain in float32: parameters come from cached float32 shadows,
// intermediates live in the scratch arena's float32 slabs, and the result is
// converted back to float64 at the network boundary so everything outside
// the MLP (segment sums, softmax, sampling) is unchanged code running on
// float64 values of float32 precision.
//
// Equivalence policy: the float64 inference path is the bitwise reference —
// it stays bit-identical to the tracked training forward, and nothing about
// it changes when this mode is off (the default). The float32 path is NOT
// bit-identical and never will be; it is bounded instead: per-element MLP
// outputs stay within Inference32RelTol/Inference32AbsTol of the float64
// path (TestInference32Tolerance), and downstream decision distributions
// stay close enough that schedules remain plausible, though individual
// argmax/sample flips on near-ties are expected and accepted. Anything that
// must be reproducible bit-for-bit — training, evaluation baselines, the
// equivalence suite — must run with the mode off. See docs/KERNELS.md.
//
// Mode tracking mirrors nograd.go: a process-wide enable flag (the -f32
// binary flag) plus a nestable scope for tests, both atomic and race-clean.
// Parameter shadows invalidate via Tensor mutation counts (NoteMutation), so
// an optimizer step or CopyParams refresh is picked up on the next forward.

import (
	"math"
	"sync/atomic"
)

// Tolerance bounds of the float32 inference path relative to the float64
// reference. A value got matches a reference want when
// |got−want| ≤ Inference32AbsTol or |got−want| ≤ Inference32RelTol·|want|.
// The bounds cover this repository's network shapes (≤3 layers, widths ≤64,
// Xavier-scale parameters) with wide margin — float32 rounding is ~6e-8
// relative per operation and the chains here are a few hundred ops deep.
const (
	Inference32RelTol = 5e-4
	Inference32AbsTol = 1e-4
)

// Within32Tol reports whether got matches the float64 reference want within
// the float32 inference tolerance.
func Within32Tol(want, got float64) bool {
	d := math.Abs(got - want)
	return d <= Inference32AbsTol || d <= Inference32RelTol*math.Abs(want)
}

var (
	inference32Enabled atomic.Bool  // process-wide switch (-f32 flag)
	inference32Depth   atomic.Int64 // nestable scope (tests)
)

// SetInference32 switches the process-wide float32 inference storage mode on
// or off. It affects only fused no-grad forwards (MLP.ForwardInference and
// everything built on it — GNN and policy inference, serving);
// tracked training forwards always run float64.
func SetInference32(on bool) { inference32Enabled.Store(on) }

// Inference32 runs fn with the float32 inference storage mode active,
// regardless of the process-wide switch. Calls nest; the scope is atomic and
// may be entered from concurrent goroutines.
func Inference32(fn func()) {
	inference32Depth.Add(1)
	defer inference32Depth.Add(-1)
	fn()
}

// Inference32Active reports whether the float32 inference storage mode is
// currently active.
func Inference32Active() bool { return inference32Active() }

func inference32Active() bool {
	return inference32Enabled.Load() || inference32Depth.Load() > 0
}

// linearShadow32 is a Linear layer's cached float32 parameter conversion,
// keyed by the mutation counts of W and B at build time.
type linearShadow32 struct {
	w, b   []float32
	wm, bm uint64
	ok     bool
}

// shadow32 returns the layer's float32 parameters, re-converting if W or B
// mutated since the cached copy was built. Callers run one at a time per
// layer (each agent clone owns its networks), matching Scratch's
// single-owner rule.
func (l *Linear) shadow32() (w, b []float32) {
	s := &l.s32
	if !s.ok || s.wm != l.W.mutations || s.bm != l.B.mutations {
		s.w = convert32(s.w, l.W.Data)
		s.b = convert32(s.b, l.B.Data)
		s.wm, s.bm = l.W.mutations, l.B.mutations
		s.ok = true
	}
	return s.w, s.b
}

// convert32 rounds src into dst, reusing dst's storage when it fits.
func convert32(dst []float32, src []float64) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// forwardInference32 is MLP.ForwardInference's float32 body: convert the
// input once, run every layer's fused matmul+bias+activation in float32 on
// arena storage, convert the final activations back to float64. Tall inputs
// spread row blocks over the kernel pool exactly like the float64 kernels.
func (m *MLP) forwardInference32(x *Tensor, s *Scratch) *Tensor {
	n, k := x.Rows, x.Cols
	h := s.Alloc32(len(x.Data))
	for i, v := range x.Data {
		h[i] = float32(v)
	}
	for li, l := range m.Layers {
		act := ActIdentity
		if li+1 < len(m.Layers) {
			act = m.Act
		}
		w, bias := l.shadow32()
		mc := l.W.Cols
		out := s.Alloc32(n * mc)
		if workers := kernelWorkers(n, kernelBlockRows, n*k*mc); workers <= 1 {
			matmulRowsF32(out, h, w, k, mc, 0, n)
			applyBiasActF32(out, bias, mc, act, 0, n)
		} else {
			forEachRowBlock(n, kernelBlockRows, workers, func(lo, hi int) {
				matmulRowsF32(out, h, w, k, mc, lo, hi)
				applyBiasActF32(out, bias, mc, act, lo, hi)
			})
		}
		h, k = out, mc
	}
	data := s.Alloc(n * k)
	for i, v := range h {
		data[i] = float64(v)
	}
	return New(n, k, data)
}

// matmulRowsF32 is matmulRowsF64's float32 twin: output rows [lo, hi) of
// a·b, ascending-p accumulation per element, four output columns
// register-tiled per pass.
func matmulRowsF32(out, a, b []float32, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		or := out[i*m : (i+1)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			var s0, s1, s2, s3 float32
			for p, av := range ar {
				br := b[p*m+j : p*m+j+4 : p*m+j+4]
				s0 += av * br[0]
				s1 += av * br[1]
				s2 += av * br[2]
				s3 += av * br[3]
			}
			or[j] = s0
			or[j+1] = s1
			or[j+2] = s2
			or[j+3] = s3
		}
		for ; j < m; j++ {
			var s float32
			for p, av := range ar {
				s += av * b[p*m+j]
			}
			or[j] = s
		}
	}
}

// applyBiasActF32 adds the bias row and applies act in place over rows
// [lo, hi). Tanh and the sigmoid exponential route through the float64 libm
// on float32 values — the storage, not the transcendental, is what this mode
// trades for speed and footprint.
func applyBiasActF32(data, bias []float32, m int, act Activation, lo, hi int) {
	for i := lo; i < hi; i++ {
		or := data[i*m : (i+1)*m]
		switch act {
		case ActLeakyReLU:
			for j := range or {
				v := or[j] + bias[j]
				if v >= 0 {
					or[j] = v
				} else {
					or[j] = float32(leakySlope) * v
				}
			}
		case ActTanh:
			for j := range or {
				or[j] = float32(math.Tanh(float64(or[j] + bias[j])))
			}
		case ActSigmoid:
			for j := range or {
				or[j] = float32(1 / (1 + math.Exp(float64(-(or[j] + bias[j])))))
			}
		default:
			for j := range or {
				or[j] += bias[j]
			}
		}
	}
}
