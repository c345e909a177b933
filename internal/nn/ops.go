package nn

import (
	"fmt"
	"math"
)

// MatMul returns a×b for a (n×k) and b (k×m). Forward and both backwards run
// on the blocked kernels in kernel.go: register-tiled inner loops, spread
// over the kernel worker pool for the tall stacked matrices the replay path
// produces (small shapes stay single-threaded). Results and
// gradients are bit-identical to the scalar kernels for any worker count —
// see kernel.go's equivalence contract.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	data := make([]float64, n*m)
	matmulF64(data, a.Data, b.Data, n, k, m)
	var out *Tensor
	back := func() {
		g := out.Grad
		if a.requiresGrad {
			a.ensureGrad()
			// dA = G · Bᵀ: dA rows are disjoint across blocks.
			if workers := kernelWorkers(n, kernelBlockRows, n*k*m); workers <= 1 {
				matmulDARows(a.Grad, g, b.Data, k, m, 0, n)
			} else {
				forEachRowBlock(n, kernelBlockRows, workers, func(lo, hi int) {
					matmulDARows(a.Grad, g, b.Data, k, m, lo, hi)
				})
			}
		}
		if b.requiresGrad {
			b.ensureGrad()
			// dB = Aᵀ · G, owner-computes over dB rows: each worker streams
			// all of A and G but accumulates only its own band of dB rows, in
			// the same ascending-i order as the scalar kernel.
			if workers := kernelWorkers(k, dbBlockRows, n*k*m); workers <= 1 {
				matmulDBRows(b.Grad, a.Data, g, n, k, m, 0, k)
			} else {
				forEachRowBlock(k, dbBlockRows, workers, func(plo, phi int) {
					matmulDBRows(b.Grad, a.Data, g, n, k, m, plo, phi)
				})
			}
		}
	}
	out = newResult(n, m, data, back, a, b)
	return out
}

// Add returns the element-wise sum of two same-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: Add shape mismatch %d×%d + %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + b.Data[i]
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			accumulate(a, out.Grad)
		}
		if b.requiresGrad {
			accumulate(b, out.Grad)
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a, b)
	return out
}

// AddRow adds a 1×m row vector b to every row of a (n×m).
func AddRow(a, b *Tensor) *Tensor {
	if b.Rows != 1 || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: AddRow shape mismatch %d×%d + %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m := a.Cols
	data := make([]float64, len(a.Data))
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*m : (i+1)*m]
		or := data[i*m : (i+1)*m]
		for j, v := range ar {
			or[j] = v + b.Data[j]
		}
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			accumulate(a, out.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				gr := out.Grad[i*m : (i+1)*m]
				for j, g := range gr {
					b.Grad[j] += g
				}
			}
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a, b)
	return out
}

// Sub returns a−b element-wise for same-shaped tensors.
func Sub(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: Sub shape mismatch")
	}
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] - b.Data[i]
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			accumulate(a, out.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i, g := range out.Grad {
				b.Grad[i] -= g
			}
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a, b)
	return out
}

// Mul returns the element-wise (Hadamard) product of same-shaped tensors.
func Mul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: Mul shape mismatch")
	}
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * b.Data[i]
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * b.Data[i]
			}
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i, g := range out.Grad {
				b.Grad[i] += g * a.Data[i]
			}
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a, b)
	return out
}

// Scale returns a scaled by the constant s.
func Scale(a *Tensor, s float64) *Tensor {
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * s
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * s
			}
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a)
	return out
}

// LeakyReLU applies max(x, alpha·x) element-wise.
func LeakyReLU(a *Tensor, alpha float64) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		if v >= 0 {
			data[i] = v
		} else {
			data[i] = alpha * v
		}
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, g := range out.Grad {
			if a.Data[i] >= 0 {
				a.Grad[i] += g
			} else {
				a.Grad[i] += g * alpha
			}
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a)
	return out
}

// Tanh applies the hyperbolic tangent element-wise.
func Tanh(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		data[i] = math.Tanh(v)
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * (1 - data[i]*data[i])
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a)
	return out
}

// Sigmoid applies the logistic function element-wise.
func Sigmoid(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		data[i] = 1 / (1 + math.Exp(-v))
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * data[i] * (1 - data[i])
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a)
	return out
}

// Sum reduces all elements to a 1×1 scalar.
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		g := out.Grad[0]
		for i := range a.Grad {
			a.Grad[i] += g
		}
	}
	out = newResult(1, 1, []float64{s}, back, a)
	return out
}

// Mean reduces all elements to their arithmetic mean as a 1×1 scalar.
func Mean(a *Tensor) *Tensor {
	return Scale(Sum(a), 1/float64(len(a.Data)))
}

// SumRows column-sums an n×m tensor into a 1×m row.
func SumRows(a *Tensor) *Tensor {
	m := a.Cols
	data := make([]float64, m)
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			data[j] += v
		}
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i := 0; i < a.Rows; i++ {
			gr := a.Grad[i*m : (i+1)*m]
			for j := range gr {
				gr[j] += out.Grad[j]
			}
		}
	}
	out = newResult(1, m, data, back, a)
	return out
}

// ConcatCols concatenates tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	total := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic("nn: ConcatCols row mismatch")
		}
		total += t.Cols
	}
	data := make([]float64, rows*total)
	off := 0
	for _, t := range ts {
		for i := 0; i < rows; i++ {
			copy(data[i*total+off:i*total+off+t.Cols], t.Data[i*t.Cols:(i+1)*t.Cols])
		}
		off += t.Cols
	}
	var out *Tensor
	back := func() {
		off := 0
		for _, t := range ts {
			if t.requiresGrad {
				t.ensureGrad()
				for i := 0; i < rows; i++ {
					for j := 0; j < t.Cols; j++ {
						t.Grad[i*t.Cols+j] += out.Grad[i*total+off+j]
					}
				}
			}
			off += t.Cols
		}
	}
	out = newResult(rows, total, data, back, ts...)
	return out
}

// GatherRows selects rows of a by index, producing len(idx)×m. Indices may
// repeat; gradients scatter-add back to the source rows.
func GatherRows(a *Tensor, idx []int) *Tensor {
	m := a.Cols
	data := make([]float64, len(idx)*m)
	for i, r := range idx {
		copy(data[i*m:(i+1)*m], a.Data[r*m:(r+1)*m])
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, r := range idx {
			ag := a.Grad[r*m : (r+1)*m]
			gr := out.Grad[i*m : (i+1)*m]
			for j, g := range gr {
				ag[j] += g
			}
		}
	}
	out = newResult(len(idx), m, data, back, a)
	return out
}

// SegmentSum scatter-adds the rows of a (n×m) into numSegments output rows:
// out[seg[i]] += a[i]. It is the aggregation primitive of the graph neural
// network (summing child messages into each parent).
func SegmentSum(a *Tensor, seg []int, numSegments int) *Tensor {
	if len(seg) != a.Rows {
		panic("nn: SegmentSum segment length mismatch")
	}
	m := a.Cols
	data := make([]float64, numSegments*m)
	for i, s := range seg {
		if s < 0 || s >= numSegments {
			panic("nn: SegmentSum index out of range")
		}
		dr := data[s*m : (s+1)*m]
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			dr[j] += v
		}
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, s := range seg {
			ag := a.Grad[i*m : (i+1)*m]
			gr := out.Grad[s*m : (s+1)*m]
			for j, g := range gr {
				ag[j] += g
			}
		}
	}
	out = newResult(numSegments, m, data, back, a)
	return out
}

// Pick selects the single element at flat index i as a 1×1 scalar.
func Pick(a *Tensor, i int) *Tensor {
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		a.Grad[i] += out.Grad[0]
	}
	out = newResult(1, 1, []float64{a.Data[i]}, back, a)
	return out
}

// LogSoftmax treats the whole tensor as one flat distribution and returns
// element-wise log-probabilities, numerically stabilised by the max trick.
func LogSoftmax(a *Tensor) *Tensor {
	maxV := math.Inf(-1)
	for _, v := range a.Data {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for _, v := range a.Data {
		sum += math.Exp(v - maxV)
	}
	logZ := maxV + math.Log(sum)
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		data[i] = v - logZ
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		var gsum float64
		for _, g := range out.Grad {
			gsum += g
		}
		for i, g := range out.Grad {
			a.Grad[i] += g - math.Exp(data[i])*gsum
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a)
	return out
}

// Softmax treats the whole tensor as one flat distribution and returns
// normalised probabilities.
func Softmax(a *Tensor) *Tensor {
	lp := LogSoftmax(a)
	data := make([]float64, len(lp.Data))
	for i, v := range lp.Data {
		data[i] = math.Exp(v)
	}
	var out *Tensor
	back := func() {
		if !lp.requiresGrad {
			return
		}
		lp.ensureGrad()
		for i, g := range out.Grad {
			lp.Grad[i] += g * data[i]
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, lp)
	return out
}

// Square returns the element-wise square of a.
func Square(a *Tensor) *Tensor { return Mul(a, a) }

// MSE returns the mean squared error between two same-shaped tensors.
func MSE(pred, target *Tensor) *Tensor { return Mean(Square(Sub(pred, target))) }

// ScatterRows returns a copy of a with row idx[i] replaced by row i of b.
// Indices must be distinct. It is the update primitive of level-batched
// message passing: a level's freshly embedded nodes replace their rows in
// the running embedding matrix.
func ScatterRows(a *Tensor, idx []int, b *Tensor) *Tensor {
	if b.Rows != len(idx) || a.Cols != b.Cols {
		panic("nn: ScatterRows shape mismatch")
	}
	m := a.Cols
	data := make([]float64, len(a.Data))
	copy(data, a.Data)
	replaced := make(map[int]bool, len(idx))
	for i, r := range idx {
		if replaced[r] {
			panic("nn: ScatterRows duplicate index")
		}
		replaced[r] = true
		copy(data[r*m:(r+1)*m], b.Data[i*m:(i+1)*m])
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				if replaced[r] {
					continue
				}
				ag := a.Grad[r*m : (r+1)*m]
				gr := out.Grad[r*m : (r+1)*m]
				for j, g := range gr {
					ag[j] += g
				}
			}
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i, r := range idx {
				bg := b.Grad[i*m : (i+1)*m]
				gr := out.Grad[r*m : (r+1)*m]
				for j, g := range gr {
					bg[j] += g
				}
			}
		}
	}
	out = newResult(a.Rows, a.Cols, data, back, a, b)
	return out
}

// ConcatRows stacks tensors with equal column counts along rows.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic("nn: ConcatRows column mismatch")
		}
		rows += t.Rows
	}
	data := make([]float64, rows*cols)
	off := 0
	for _, t := range ts {
		copy(data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	var out *Tensor
	back := func() {
		off := 0
		for _, t := range ts {
			if t.requiresGrad {
				t.ensureGrad()
				for i := range t.Grad {
					t.Grad[i] += out.Grad[off+i]
				}
			}
			off += len(t.Data)
		}
	}
	out = newResult(rows, cols, data, back, ts...)
	return out
}
