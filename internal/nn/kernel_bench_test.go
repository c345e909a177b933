package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// The BenchmarkKernel* family feeds BENCH_kernels.json (make bench-json):
// raw matmul kernel throughput in GFLOP/s at the stack's real shapes,
// single-decision vs stacked. docs/KERNELS.md explains how to read the
// numbers.

// kernelShapes are the matmul shapes that dominate the stack's flop budget:
// "decision" is one event's fused policy forward (a few dozen candidate
// rows), "batch" a mid-size stack (a short replayed episode's rows),
// "replay" the batched episode replay (every decision of an episode stacked
// into one forward).
var kernelShapes = []struct {
	name    string
	n, k, m int
}{
	{"decision_64x32x16", 64, 32, 16},
	{"batch_512x32x16", 512, 32, 16},
	{"replay_8192x32x16", 8192, 32, 16},
}

func reportGFLOPs(b *testing.B, n, k, m int) {
	flops := 2 * float64(n) * float64(k) * float64(m) * float64(b.N)
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(flops/sec/1e9, "GFLOP/s")
	}
}

// BenchmarkKernelMatMulF64 measures the blocked register-tiled float64
// matmul kernel alone (no autograd, no bias/activation) at the default
// worker setting.
func BenchmarkKernelMatMulF64(b *testing.B) {
	for _, sh := range kernelShapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randTensor(rng, sh.n, sh.k)
			w := randTensor(rng, sh.k, sh.m)
			out := make([]float64, sh.n*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulF64(out, a.Data, w.Data, sh.n, sh.k, sh.m)
			}
			reportGFLOPs(b, sh.n, sh.k, sh.m)
		})
	}
}

// BenchmarkKernelMLPInference measures the full fused MLP forward (matmul +
// bias + activation per layer, arena-backed) at the stacked shapes — the
// end-to-end cost the serving and replay paths pay.
func BenchmarkKernelMLPInference(b *testing.B) {
	for _, rows := range []int{64, 512, 8192} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			m := NewMLP([]int{24, 32, 16, 1}, ActLeakyReLU, rng)
			x := randTensor(rng, rows, 24)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				m.ForwardInference(x, &s)
			}
			// One forward is three layers: 24→32→16→1.
			flops := 2 * float64(rows) * float64(24*32+32*16+16*1) * float64(b.N)
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(flops/sec/1e9, "GFLOP/s")
			}
		})
	}
}

// BenchmarkKernelMatMulWorkers sweeps the worker count at the replay shape
// (SetMatMulWorkers). On a single-CPU host all counts
// collapse to the serial path's throughput; on multicore the spread is the
// parallel speedup.
func BenchmarkKernelMatMulWorkers(b *testing.B) {
	defer SetMatMulWorkers(0)
	sh := kernelShapes[2] // replay
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			SetMatMulWorkers(workers)
			rng := rand.New(rand.NewSource(3))
			a := randTensor(rng, sh.n, sh.k)
			w := randTensor(rng, sh.k, sh.m)
			out := make([]float64, sh.n*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulF64(out, a.Data, w.Data, sh.n, sh.k, sh.m)
			}
			reportGFLOPs(b, sh.n, sh.k, sh.m)
		})
	}
}
