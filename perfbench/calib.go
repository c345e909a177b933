package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration. On a virtual machine shared with other tenants
// the speed of the CPU the benchmark gets varies by more than a factor of
// two over an hour: the median served decision of serve-1 at one seed read
// 139 µs at one time and 55 µs at another, with the CPU per decision
// moving in step. A regression gate cannot work with that, so the
// end-to-end times are reported at a reference speed: while a run sets up
// and measures, a background goroutine times a fixed kernel that does not
// depend on the program under test, and the run scales its times by
// calibRef over the kernel's median time. The kernel time is reported per
// layer as bench.calibration_us; times as measured are printed with every
// result.

// calibRef is the kernel's time on the reference machine (the 2-vCPU Xeon
// VM the benchmark was built on, at its fastest).
const calibRef = 25 * time.Microsecond

// calibPeriod and calibBatch set the sampler's duty cycle: calibBatch units
// (about half a millisecond at the reference speed) every calibPeriod,
// a few percent of one CPU.
const (
	calibPeriod = 20 * time.Millisecond
	calibBatch  = 20
)

// calibSink keeps the calibration kernel's result alive.
var calibSink float64

// kernel is the calibration kernel's working set.
type kernel struct {
	a, b, c []float64
	m       map[int]int
}

const kernelN = 32

func newKernel() *kernel {
	k := &kernel{
		a: make([]float64, kernelN*kernelN),
		b: make([]float64, kernelN*kernelN),
		c: make([]float64, kernelN*kernelN),
		m: make(map[int]int, 1024),
	}
	for i := range k.a {
		k.a[i], k.b[i] = float64(i%7)/7, float64(i%5)/5
	}
	return k
}

// unit is one unit of fixed CPU work: a 32×32 float64 matrix product and a
// 512-key map churn, the two kinds of work the scheduling hot path does
// most.
func (k *kernel) unit() {
	for i := 0; i < kernelN; i++ {
		for l := 0; l < kernelN; l++ {
			ail := k.a[i*kernelN+l]
			for j := 0; j < kernelN; j++ {
				k.c[i*kernelN+j] += ail * k.b[l*kernelN+j]
			}
		}
	}
	for i := 0; i < 512; i++ {
		k.m[i*7919%1021] += i
	}
	calibSink += k.c[0] + float64(k.m[1])
}

// calibration samples the kernel in the background for the life of a run.
// Samples are timed in the thread CPU time of the sampling goroutine,
// which leaves out the time the host steals (the median decision already
// tolerates it) and keeps what it does not: a slower core.
type calibration struct {
	stop, done chan struct{}
	once       sync.Once
	samples    []time.Duration
}

// startCalibration starts the sampler; stop it with finish.
func startCalibration() *calibration {
	c := &calibration{stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *calibration) loop() {
	defer close(c.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k := newKernel()
	t := time.NewTicker(calibPeriod)
	defer t.Stop()
	for {
		t0 := threadCPU()
		for u := 0; u < calibBatch; u++ {
			k.unit()
		}
		c.samples = append(c.samples, (threadCPU()-t0)/calibBatch)
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the sampler, if it still runs, and returns the median
// kernel time.
func (c *calibration) finish() time.Duration {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
		sortDurations(c.samples)
	})
	return c.samples[len(c.samples)/2]
}

// atReference converts a time measured in a run whose median kernel time
// was k to the reference speed.
func atReference(v float64, k time.Duration) float64 { return v * float64(calibRef) / float64(k) }

// threadCPU is the CPU time of the calling OS thread, from
// CLOCK_THREAD_CPUTIME_ID: getrusage accounts thread time in scheduler
// ticks, too coarse for a batch of half a millisecond.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}
