// Package repro is a from-scratch Go reproduction of "Learning Scheduling
// Algorithms for Data Processing Clusters" (Mao et al., SIGCOMM 2019) —
// Decima, the reinforcement-learning cluster scheduler for DAG-structured
// data-processing jobs.
//
// Start with README.md for the layout and quickstart, DESIGN.md for the
// system inventory and the performance-sensitive designs (fast paths,
// caching, batched training and serving), EXPERIMENTS.md for the paper
// figure/table ↔ experiment/benchmark mapping with current measured
// numbers, docs/KERNELS.md for the numeric kernel layer (blocked parallel
// matmul, float64 precision policy, benchmark artifacts), and
// docs/PROTOCOL.md for the RPC scheduling service's wire protocol, and
// docs/FLEET.md for the distributed serving tier (session-sharding
// router, replica lifecycle, fleet observability), and docs/ONLINE.md
// for the closed loop (trajectory recording, online training, the model
// registry, hot-swap). The repository-level benchmarks (bench_test.go) regenerate
// every table and figure of the paper's evaluation at a small scale;
// cmd/decima-bench runs them at larger scales.
package repro
