# Developer and CI entry points. CI (.github/workflows/ci.yml) invokes these
# same targets so local runs and CI runs are identical.

GO ?= go

.PHONY: all build test race bench bench-json bench-robustness smoke-server smoke-restart smoke-fleet smoke-chaos smoke-online fuzz fmt vet docs-check

all: build vet fmt docs-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run; -short skips the slowest training tests so this stays
# within CI minutes (the plain `test` target runs everything).
race:
	$(GO) test -race -short ./...

# Benchmark smoke run: compile and execute every benchmark once.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Documentation consistency: every file referenced from the core documents
# must exist (see cmd/docscheck). Fails the build on rot.
docs-check:
	$(GO) run ./cmd/docscheck

# Benchmark artifacts, uploaded by CI so the perf trajectory is tracked
# commit over commit.
#
# BENCH_inference.json: event-decision latency (fast path, no-cache fast
# path, pre-PR tracked path) plus the Fig. 9a end-to-end benchmark.
# BENCH_serving.json: per-event serving latency over the wire — one
# session (server-side mirror, embedding cache on) and 16 concurrent
# sessions; the "ns/event" extra metric is the number that matters.
# BENCH_training.json: full training-iteration cost (inference rollouts +
# episode replay backward) on the batched replay vs the per-decision
# direct-tape reference; ns/op, allocs/op and the "episodes/sec" extra
# metric are the numbers the ≥3× training-throughput bar is judged on.
# BENCH_kernels.json: raw matmul kernel throughput (the "GFLOP/s" extra
# metric) at the stack's decision/batch/replay shapes, the fused MLP
# forward, plus the kernel pool's worker-count sweep; see docs/KERNELS.md.
# BENCH_fleet.json: aggregate serving throughput through the
# session-sharding router at 1/2/4 replicas ("events/sec"), with the
# "migrations" metric pinning the steady state at zero; see docs/FLEET.md.
# BENCH_overload.json: the offered-load sweep past the admission bound —
# "served/sec", "shed_frac" and "p99_ms" per load level; the bar is shed_frac
# climbing past capacity while p99_ms stays bounded (load is refused at the
# gate, never queued into a latency collapse); see docs/ROBUSTNESS.md.
# BENCH_online.json: the online-loop serving costs — full recorded vs
# unrecorded session runs ("events/sec"; the off/on delta is the recording
# tax, bounded at ±2%) and the hot-swap sweep latency across 8 live
# sessions; see docs/ONLINE.md.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkInferenceDecision' -benchtime=200x ./internal/core/ > bench-core.out
	$(GO) test -run '^$$' -bench 'BenchmarkFig9a$$' -benchtime=1x . > bench-fig9a.out
	cat bench-core.out bench-fig9a.out | $(GO) run ./cmd/benchjson > BENCH_inference.json
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime=5x ./internal/rpcsvc/ > bench-serving.out
	cat bench-serving.out | $(GO) run ./cmd/benchjson > BENCH_serving.json
	$(GO) test -run '^$$' -bench 'BenchmarkTrainIteration' -benchtime=5x ./internal/rl/ > bench-training.out
	cat bench-training.out | $(GO) run ./cmd/benchjson > BENCH_training.json
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchtime=100x ./internal/nn/ > bench-kernels.out
	cat bench-kernels.out | $(GO) run ./cmd/benchjson > BENCH_kernels.json
	$(GO) test -run '^$$' -bench 'BenchmarkFleetThroughput' -benchtime=2x ./internal/fleet/ > bench-fleet.out
	cat bench-fleet.out | $(GO) run ./cmd/benchjson > BENCH_fleet.json
	$(GO) test -run '^$$' -bench 'BenchmarkOverload' -benchtime=200x ./internal/rpcsvc/ > bench-overload.out
	cat bench-overload.out | $(GO) run ./cmd/benchjson > BENCH_overload.json
	$(GO) test -run '^$$' -bench 'BenchmarkOnlineLoop' -benchtime=20x ./internal/online/ > bench-online.out
	cat bench-online.out | $(GO) run ./cmd/benchjson > BENCH_online.json
	@rm -f bench-core.out bench-fig9a.out bench-serving.out bench-training.out bench-kernels.out bench-fleet.out bench-overload.out bench-online.out
	@cat BENCH_inference.json BENCH_serving.json BENCH_training.json BENCH_kernels.json BENCH_fleet.json BENCH_overload.json BENCH_online.json

# Fuzz the serving decode surfaces: gob request frames into the session
# service and checkpoint images into the registry reader. Each target gets
# its own invocation (go test allows one -fuzz pattern per run); the seed
# corpora are always exercised by plain `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzGobOpenRequest' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzGobEventRequest' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpoint' -fuzztime 30s ./internal/registry/

# BENCH_robustness.json: the failure-regime matrix (CI `robustness` job).
# First the fast lossy-regime gate the job is named for (decima trained
# clean at smoke scale vs fifo), then the full scheduler × regime matrix
# as the uploaded artifact.
bench-robustness:
	$(GO) run ./cmd/decima-bench -failures lossy -scheduler decima,fifo -short
	$(GO) run ./cmd/decima-bench -failures all -short -json BENCH_robustness.json

# End-to-end smoke of the serving binary: build decima-server, start it as
# a real process, open a session over TCP, drive ≥100 scheduling events,
# and assert a clean SIGINT shutdown.
smoke-server:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -events 100

# Crash-recovery smoke: SIGKILL the serving process mid-session, start a
# replacement on the same address, and require the self-healing session
# client to finish with a schedule identical to an uninterrupted run.
smoke-restart:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -restart

# Fleet smoke: router + 3 real replica processes; SIGKILL one replica
# mid-session, drain another via the admin endpoint, and require the
# healed schedule to be identical to an unsharded uninterrupted run
# (docs/FLEET.md).
smoke-fleet:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) build -o bin/decima-fleet ./cmd/decima-fleet
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -fleet-bin bin/decima-fleet -fleet

# Chaos smoke: the serving process runs with a tight admission bound while
# noise sessions saturate it, and the observed session rides a fault-injected
# transport (deterministic chaos: latency + resets). The run must see real
# overload sheds and transient faults, heal every one, and finish with a
# schedule identical to an undisturbed reference run (docs/ROBUSTNESS.md).
smoke-chaos:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -chaos

# Online-loop smoke: the serving binary runs with a live registry and the
# in-process trainer on; recorded sessions feed it until a hot-swap lands,
# then /metrics, /healthz and the registry on disk must all agree on the
# new model version (docs/ONLINE.md).
smoke-online:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -online

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
