package rpcsvc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestConcurrentSessionsFloat32 is the race bar for the raw-speed kernel
// pass: N full simulations in parallel over one server with the float32
// storage mode on and the matmul worker pool forced active — the race
// detector guards the parameter shadows and the kernel pool at once.
// Results are tolerance-bounded, not bitwise, so the assertion is
// completion, not equivalence (the f64 equivalence suite lives in
// TestConcurrentSessions and TestConcurrentServingBitIdentical).
func TestConcurrentSessionsFloat32(t *testing.T) {
	nn.SetInference32(true)
	defer nn.SetInference32(false)
	nn.SetMatMulWorkers(4)
	defer nn.SetMatMulWorkers(0)

	const executors = 6
	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(seed)), 4)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(seed))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			if res.Unfinished != 0 || res.Deadlock {
				errs <- fmt.Errorf("seed %d: unfinished=%d deadlock=%v", seed, res.Unfinished, res.Deadlock)
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
