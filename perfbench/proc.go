package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's resource counters.
type procSnap struct {
	wall               time.Time
	user, sys          time.Duration
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64 // seconds, from runtime/metrics
}

// cpu is the process's CPU time (user and system) up to the snapshot.
func (p procSnap) cpu() time.Duration { return p.user + p.sys }

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		samples[i].Name = n
	}
	metrics.Read(samples)
	f := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return procSnap{
		wall:       time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCPU:      f(samples[0]),
		totalCPU:   f(samples[1]),
	}
}

// procMetrics reports the proc.* per-layer metrics for the interval between
// two snapshots in which ops operations completed.
func procMetrics(a, b procSnap, ops int64, m metricSet) {
	cpu := (b.user - a.user) + (b.sys - a.sys)
	wall := b.wall.Sub(a.wall)
	m.set("proc.cpu_us_per_op", ratio(us(cpu), float64(ops)))
	m.set("proc.sys_share", ratio(float64(b.sys-a.sys), float64(cpu)))
	m.set("proc.alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), float64(ops)))
	m.set("proc.allocs_per_op", ratio(float64(b.allocs-a.allocs), float64(ops)))
	m.set("proc.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
	m.set("proc.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.NumCPU())))
}

// rssPeriod is how often rssPeak samples the resident set. The heap of a
// serving run is collected every few tens of milliseconds, and its pages
// stay resident between collections, so a sample every 5 ms sees the peak.
const rssPeriod = 5 * time.Millisecond

// rssPeak samples the process's resident set in the background and keeps
// its maximum. It measures the timed phase only: the process's own
// high-water mark (getrusage) is set by the oracle's reference replay,
// whose peak depends on how the host schedules its parallel workers, and
// moved by up to 40% between runs of the same inputs.
type rssPeak struct {
	stop, done chan struct{}
	max        float64
}

// startRSSPeak returns the memory the heap no longer uses to the operating
// system, so that the peak is the phase's own, and starts sampling.
func startRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{}), max: rssMB()}
	go func() {
		defer close(p.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.max = max(p.max, rssMB())
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the peak resident set in MiB.
func (p *rssPeak) finish() float64 {
	close(p.stop)
	<-p.done
	return max(p.max, rssMB())
}

// rssMB is the process's resident set in MiB, from /proc/self/statm.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// machine is the stamp every result carries: numbers from different
// machines are not comparable.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func readMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
