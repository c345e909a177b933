package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 9

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"serve-1":     runServe1,
	"serve-fleet": runServeFleet,
	"train":       runTrain,
}

// workloadOrder is the order "all" runs them in.
var workloadOrder = []string{"serve-1", "serve-fleet", "train"}

func runServe1(opt options) (*outcome, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	seqs := batches(rng, 64, 10)
	return runServe(opt, topology{replicas: 1, sessions: 1, conns: 1}, sim.SparkDefaults(executors), seqs, warmUp(), 8)
}

func runServeFleet(opt options) (*outcome, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	seqs := poissons(rng, 40, 60, 0.95)
	churn, err := workload.Regime("flash-churn")
	if err != nil {
		return nil, err
	}
	return runServe(opt, topology{replicas: 2, router: true, sessions: 8, conns: 2}, churn.Apply(sim.SparkDefaults(executors)), seqs, warmUp(), 2)
}

// runServe is the common body of the serving workloads. The probes of a
// traced run replay the first nProbe sequences.
func runServe(opt options, top topology, cfg sim.Config, seqs, warm []*sequence, nProbe int) (*outcome, error) {
	o := &outcome{workload: opt.workload, correct: true, metrics: metricSet{}}
	cal := startCalibration()
	defer cal.finish()
	model := newModel()
	if err := replayReference(cfg, model, append(append([]*sequence(nil), seqs...), warm...)); err != nil {
		return nil, err
	}

	// Set up several times; keep the last deployment for the timed phase.
	var d *deployment
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(top, model); err != nil {
			return nil, err
		}
		ph := d.serve(cfg, warm, 0, 1, nil, o)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		runtime.GC()
		o.attempted += ph.events
		o.failed += ph.failed
	}
	setup := median(setupTimes)
	defer d.close()

	window := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		rss := startRSSPeak()
		p0 := readProc()
		ph := d.serve(cfg, seqs, window, 0, nil, o)
		cpu := readProc().cpu() - p0.cpu()
		o.attempted += ph.events
		o.failed += ph.failed
		lat := sortDurations(ph.lat)
		reportEndToEnd(o, cal, setup, us(percentile(lat, 50)), ratio(us(cpu), float64(ph.events)), rss.finish())
		o.metrics.set("jct_vs_fair", jctVsFair(seqs))
		o.note("decisions timed: %d in the window, %d in all, over %d runs", len(lat), ph.events, ph.runs)
		return o, nil
	}

	// Traced run: half the time untraced (wall-clock figures and process
	// counters), half traced (spans and serving counters), then the probes.
	runtime.GC()
	p0 := readProc()
	phU := d.serve(cfg, seqs, window/2, 0, nil, o)
	procMetrics(p0, readProc(), phU.events, o.metrics)
	wallMetrics(phU.lat, rate(phU), ratio(phU.windowRuns, phU.until.Sub(phU.start).Seconds()), o)
	tr := newTrace()
	c0 := d.counters()
	phT := d.serve(cfg, seqs, window/2, 0, tr, o)
	c1 := d.counters()
	for _, ph := range []servePhase{phU, phT} {
		o.attempted += ph.events
		o.failed += ph.failed
	}
	servingLayers(phT, c0, c1, o.metrics, top.router)
	st := tr.selfTimes()
	o.metrics.set("sim.self_us_per_event", ratio(us(st["sim.run"].self), float64(st["client.schedule"].count)))
	o.metrics.set("sim.events_per_run", ratio(float64(phT.events), float64(phT.runs)))
	o.metrics.set("bench.trace_overhead", ratio(rate(phU), rate(phT))-1)
	d.close()

	probes := seqs[:nProbe]
	coreProbe(cfg, model, probes, o.metrics, o)
	rlProbe(cfg, model, probes, 4, 3, runtime.NumCPU(), o.metrics)
	if !top.router {
		if err := hopProbe(cfg, model, probes, false, o.metrics, o); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(opt, tr, o); err != nil {
		return nil, err
	}
	o.metrics.set("bench.calibration_us", us(cal.finish()))
	return o, nil
}

// reportEndToEnd sets the end-to-end metrics every workload reports alike:
// the times at the reference speed, and the timed phase's peak memory.
func reportEndToEnd(o *outcome, cal *calibration, setup, p50, cpu, rss float64) {
	k := cal.finish()
	o.metrics.set("setup_s", atReference(setup, k))
	o.metrics.set("decide_p50_us", atReference(p50, k))
	o.metrics.set("cpu_us_per_decide", atReference(cpu, k))
	o.metrics.set("max_rss_mb", rss)
	o.note("as measured: setup_s %.4f, decide_p50_us %.3f, cpu_us_per_decide %.3f; calibration kernel %.3f us (reference %.3f us)",
		setup, p50, cpu, us(k), us(calibRef))
}

// rate is a serving phase's in-window decisions per second.
func rate(ph servePhase) float64 {
	return ratio(float64(ph.inWindow), ph.until.Sub(ph.start).Seconds())
}

// wallMetrics sets the wall-clock figures of an untraced phase: the tail
// decision latency, decisions per second and episodes per second. They are
// per-layer metrics, reported but not gated: on a machine shared with other
// tenants they move with the CPU time the host takes away.
func wallMetrics(lat []time.Duration, decides, episodes float64, o *outcome) {
	lat = sortDurations(lat)
	o.metrics.set("wall.decide_p99_us", us(percentile(lat, 99)))
	o.metrics.set("wall.decides_per_s", decides)
	o.metrics.set("wall.episodes_per_s", episodes)
	o.note("tail: %d decisions timed, highest admissible percentile p%g", len(lat), tailPercentile(len(lat)))
}

// writeSpans stores the trace of a traced run.
func writeSpans(opt options, tr *trace, o *outcome) error {
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
	hdr := map[string]any{"workload": opt.workload, "seed": opt.seed, "machine": readMachine()}
	if err := tr.write(path, hdr); err != nil {
		return err
	}
	o.note("span file: %s (%d spans)", path, tr.spans())
	return nil
}

// The train workload's timed work: training for a fixed number of
// iterations, itersPerSecond for each second of trainFrac × --seconds
// (about that long on a 2-vCPU machine), then evaluation for the rest of
// --seconds. A fixed iteration count keeps every run on the same horizon
// sequence, so runs differ only by their inputs.
const (
	trainFrac      = 0.6
	itersPerSecond = 10
)

// snapshotIter is the training iteration whose parameters are evaluated:
// fixed, so the evaluated policy and its JCT do not depend on how fast the
// machine trains.
const snapshotIter = 3

// trainerSeed seeds the trainer's own draws (episode horizons, sampling
// and simulator seeds). Like modelSeed it belongs to the program under
// test: every run trains through the same horizon sequence.
const trainerSeed = 7

func runTrain(opt options) (*outcome, error) {
	o := &outcome{workload: opt.workload, correct: true, metrics: metricSet{}}
	cal := startCalibration()
	defer cal.finish()
	rng := rand.New(rand.NewSource(opt.seed))
	pool := batches(rng, 64, 10)
	held := batches(rng, 64, 10)
	evalSeed := rng.Int63n(1 << 40)
	for i, s := range held {
		s.simSeed = evalSeed + int64(i) // the seeds rl.Evaluate gives its runs
	}
	cfg := sim.SparkDefaults(executors)
	workers := runtime.NumCPU()

	// Set up several times: a model, a trainer and one warm-up iteration.
	var t *trainer
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		agent := newModel()
		agent.Greedy = false
		t = &trainer{tr: rl.NewTrainer(agent, trainConfig(workers), rand.New(rand.NewSource(trainerSeed))), src: cycle(pool), cfg: cfg}
		t.tr.Iteration(t.src, cfg)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		runtime.GC()
	}
	setup := median(setupTimes)
	o.attempted += episodesPerIter

	// Train up to the snapshot taken after snapshotIter iterations and check
	// its reference runs, then evaluate it and train on. Evaluating first
	// keeps the trainer's pooled episode storage small while decisions are
	// timed. A traced run splits both phases into an untraced half (process
	// counters, iteration times, wall-clock figures) and a traced half
	// (spans).
	for t.snap == nil {
		t.step(nil)
	}
	snap := t.snap
	if err := replayReference(cfg, snap, held); err != nil {
		return nil, fmt.Errorf("evaluation reference: %w", err)
	}
	if err := checkEvaluate(snap, held, cfg, evalSeed); err != nil {
		o.fail("%v", err)
	}
	runtime.GC()
	iters := max(2, int(math.Round(opt.seconds*trainFrac*itersPerSecond)))
	evalWindow := time.Duration((1 - trainFrac) * opt.seconds * float64(time.Second))

	if !opt.trace {
		rss := startRSSPeak()
		var ep evalPhase
		ep.run(snap, held, cfg, evalWindow, nil, o)
		tp := t.train(iters, nil)
		o.attempted += ep.runs + tp.episodes
		o.failed += ep.failed
		lat := sortDurations(ep.lat)
		reportEndToEnd(o, cal, setup, us(percentile(lat, 50)), ratio(us(tp.cpu), float64(tp.steps)), rss.finish())
		o.metrics.set("jct_vs_fair", jctVsFair(held))
		o.note("evaluation: %d decisions timed over %d runs; training: %d iterations, %d decisions in %.2fs", len(lat), ep.runs, tp.iters, tp.steps, tp.wall.Seconds())
		return o, nil
	}

	trc := newTrace()
	var eU, eT evalPhase
	eU.run(snap, held, cfg, evalWindow/2, nil, o)
	eT.run(snap, held, cfg, evalWindow/2, trc, o)
	runtime.GC()
	p0 := readProc()
	tpU := t.train(iters/2, nil)
	procMetrics(p0, readProc(), tpU.episodes, o.metrics)
	o.metrics.set("rl.iter_p50_ms", median(tpU.iterMs))
	tpT := t.train(iters/2, trc)
	o.attempted += eU.runs + eT.runs + tpU.episodes + tpT.episodes
	o.failed += eU.failed + eT.failed
	wallMetrics(eU.lat, eU.rate(), ratio(float64(tpU.episodes), tpU.wall.Seconds()), o)
	st := trc.selfTimes()
	o.metrics.set("sim.self_us_per_event", ratio(us(st["sim.run"].self), float64(st["core.schedule"].count)))
	o.metrics.set("sim.events_per_run", ratio(float64(eT.decisions), float64(eT.runs)))
	o.metrics.set("bench.trace_overhead", ratio(eU.rate(), eT.rate())-1)

	coreProbe(cfg, snap, held[:8], o.metrics, o)
	rlProbe(cfg, t.tr.Agent, pool[:8], 4, 0, workers, o.metrics)
	if err := hopProbe(cfg, snap, held[:8], true, o.metrics, o); err != nil {
		return nil, err
	}
	if err := writeSpans(opt, trc, o); err != nil {
		return nil, err
	}
	o.metrics.set("bench.calibration_us", us(cal.finish()))
	return o, nil
}

// trainer drives rl.Trainer iterations for the train workload.
type trainer struct {
	tr    *rl.Trainer
	src   rl.JobSource
	cfg   sim.Config
	iters int   // timed and untimed iterations after setup
	steps int64 // decisions rolled out and replayed
	// snap is a greedy copy of the model as it was after snapshotIter
	// iterations.
	snap *core.Agent
}

// step runs one iteration, inside a span when traced.
func (t *trainer) step(rec *recorder) {
	sp := rec.begin("rl.iteration", -1, int64(t.iters), 0)
	st := t.tr.Iteration(t.src, t.cfg)
	rec.end(sp)
	t.steps += int64(math.Round(st.MeanSteps * episodesPerIter))
	t.iters++
	if t.iters == snapshotIter {
		t.snap = t.tr.Agent.Clone(rand.New(rand.NewSource(sessionSeed)))
		t.snap.Greedy = true
	}
}

// trainPhase is what one stretch of training produced.
type trainPhase struct {
	iters, episodes, steps int64
	wall, cpu              time.Duration
	iterMs                 []float64
}

// train runs n iterations.
func (t *trainer) train(n int, trc *trace) trainPhase {
	rec := trc.recorder()
	var p trainPhase
	runtime.GC()
	p0 := readProc()
	s0 := t.steps
	start := time.Now()
	for ; p.iters < int64(n); p.iters++ {
		t0 := time.Now()
		t.step(rec)
		p.iterMs = append(p.iterMs, ms(time.Since(t0)))
	}
	p.wall = time.Since(start)
	p.cpu = readProc().cpu() - p0.cpu()
	p.episodes = p.iters * episodesPerIter
	p.steps = t.steps - s0
	return p
}

// evalPhase is what one stretch of greedy evaluation produced.
type evalPhase struct {
	runs, failed, decisions int64
	wall                    time.Duration
	lat                     []time.Duration
}

func (p *evalPhase) rate() float64 { return ratio(float64(p.decisions), p.wall.Seconds()) }

// evalScheduler times the evaluated agent's decisions.
type evalScheduler struct {
	agent  *core.Agent
	rec    *recorder
	parent int32
	run    int64
	seq    int64
	lat    []time.Duration
}

func (e *evalScheduler) Schedule(s *sim.State) *sim.Action {
	e.seq++
	sp := e.rec.begin("core.schedule", e.parent, e.run, e.seq)
	t0 := time.Now()
	act := e.agent.Schedule(s)
	d := time.Since(t0)
	e.rec.end(sp)
	e.lat = append(e.lat, d)
	return act
}

// run evaluates agent greedily over seqs in passes, as rl.Evaluate does (one
// agent, inference mode, run i seeded evalSeed+i), until the window has
// passed, checking every run against the reference.
func (p *evalPhase) run(agent *core.Agent, seqs []*sequence, cfg sim.Config, window time.Duration, trc *trace, o *outcome) {
	ev := &evalScheduler{agent: agent, rec: trc.recorder()}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		for i, seq := range seqs {
			ev.run, ev.seq = int64(pass*len(seqs)+i), 0
			ev.parent = ev.rec.begin("sim.run", -1, ev.run, 0)
			var res *sim.Result
			nn.Inference(func() { res = simulate(cfg, seq, ev) })
			ev.rec.end(ev.parent)
			p.runs++
			p.decisions += int64(res.Invocations)
			if err := sameSchedule(res, seq.ref); err != nil {
				o.fail("evaluation pass %d run %d: %v", pass, i, err)
				p.failed++
			}
		}
		agent.ResetCache()
	}
	p.wall = time.Since(start)
	p.lat = ev.lat
}

// checkEvaluate checks that rl.Evaluate reports bitwise the average JCT of
// the reference runs.
func checkEvaluate(agent *core.Agent, seqs []*sequence, cfg sim.Config, evalSeed int64) error {
	jobs := make([][]*dag.Job, len(seqs))
	var sum float64
	for i, s := range seqs {
		jobs[i] = s.jobs
		sum += s.ref.AvgJCT()
	}
	got, _ := rl.Evaluate(agent.Clone(rand.New(rand.NewSource(sessionSeed))), jobs, cfg, evalSeed)
	if want := sum / float64(len(seqs)); math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("rl.Evaluate average JCT %v, reference runs %v", got, want)
	}
	return nil
}
