// Package policy implements Decima's policy network (§5.2): score functions
// over GNN embeddings that select (i) the next stage to schedule via a
// masked softmax over runnable nodes, (ii) the parallelism limit for that
// stage's job, and — in the multi-resource setting of §7.3 — (iii) the
// executor class to draw from.
//
// The limit score function takes the limit value as an *input* (one shared
// function for all limits); the NoLimitInput option ablates this into one
// output unit per limit, and StageLevelLimits switches limits from job
// granularity to per-node granularity — the two alternatives whose slower
// training Fig. 15a demonstrates.
//
// Decide builds the tracked (differentiable) graph for training;
// DecideInference is its bit-identical no-grad fast path; and
// ReplayLoss/ReplayDecision rebuild recorded decisions for the batched
// training backward.
package policy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// Config sizes the policy network.
type Config struct {
	// EmbedDim is the GNN embedding dimensionality.
	EmbedDim int
	// Hidden lists hidden-layer widths of the score MLPs.
	Hidden []int
	// NumLimits is the number of discrete parallelism levels (typically the
	// executor count).
	NumLimits int
	// NumClasses enables the executor-class head when > 1.
	NumClasses int
	// NoLimitInput ablates the limit-as-input design: a separate output per
	// limit level (Fig. 15a, "no limit input" curve).
	NoLimitInput bool
	// StageLevelLimits scores limits per node instead of per job
	// (Fig. 15a, "stage-level granularity" curve).
	StageLevelLimits bool
}

// Policy holds the score networks q (node), w (limit) and c (class).
type Policy struct {
	Cfg Config

	Q *nn.MLP // node score: [e_v, y_i, z] → scalar
	W *nn.MLP // limit score: [y_i, z, l] (or [e_v, y_i, z, l]) → scalar
	C *nn.MLP // class score: [y_i, z, mem] → scalar (multi-resource only)
}

// New builds a policy network.
func New(cfg Config, rng *rand.Rand) *Policy {
	if cfg.NumLimits < 1 {
		panic("policy: NumLimits must be ≥ 1")
	}
	mlp := func(in, out int) *nn.MLP {
		sizes := append([]int{in}, cfg.Hidden...)
		sizes = append(sizes, out)
		return nn.NewMLP(sizes, nn.ActLeakyReLU, rng)
	}
	d := cfg.EmbedDim
	p := &Policy{Cfg: cfg}
	p.Q = mlp(3*d, 1)
	wIn := 2*d + 1
	if cfg.StageLevelLimits {
		wIn = 3*d + 1
	}
	if cfg.NoLimitInput {
		p.W = mlp(wIn-1, cfg.NumLimits)
	} else {
		p.W = mlp(wIn, 1)
	}
	if cfg.NumClasses > 1 {
		p.C = mlp(2*d+1, 1)
	}
	return p
}

// Params returns all trainable tensors in a stable order.
func (p *Policy) Params() []*nn.Tensor {
	ps := append(p.Q.Params(), p.W.Params()...)
	if p.C != nil {
		ps = append(ps, p.C.Params()...)
	}
	return ps
}

// Candidate identifies one schedulable node: job row JobIdx in the
// embeddings and node row NodeIdx within that job's node matrix.
type Candidate struct {
	JobIdx  int
	NodeIdx int
}

// Decision is one sampled (or greedy) action with its differentiable
// log-probability for REINFORCE.
type Decision struct {
	// Choice indexes the selected candidate.
	Choice int
	// Limit is the selected parallelism level in 1..NumLimits.
	Limit int
	// Class is the selected executor class, or -1 when the class head is
	// disabled.
	Class int
	// LogProb is the differentiable log π(a|s) of the full action.
	LogProb *nn.Tensor
	// Entropy is the differentiable entropy of the node-selection
	// distribution (useful as an exploration regulariser).
	Entropy *nn.Tensor
	// NodeProbs holds the node-selection probabilities (diagnostics).
	NodeProbs []float64
}

// Request describes one decision's context and masks.
type Request struct {
	// Cands lists schedulable nodes; must be non-empty.
	Cands []Candidate
	// MinLimit is the lowest admissible parallelism level (the paper
	// enforces limits greater than the job's current allocation so every
	// action makes progress); clamped to [1, NumLimits].
	MinLimit int
	// MinLimits optionally overrides MinLimit per candidate (the admissible
	// limits depend on which node's job ends up chosen).
	MinLimits []int
	// ClassOK masks eligible executor classes for the chosen node; nil when
	// classes are disabled.
	ClassOK []bool
	// ClassOKPer optionally overrides ClassOK per candidate.
	ClassOKPer [][]bool
	// ClassMem gives each class's memory size (the class head's input).
	ClassMem []float64
	// Greedy selects argmax instead of sampling.
	Greedy bool
}

// repeatRow returns t (1×m) repeated n times.
func repeatRow(t *nn.Tensor, n int) *nn.Tensor {
	idx := make([]int, n)
	return nn.GatherRows(t, idx)
}

// forced pins every head of a decision to an already-sampled action, so the
// tracked graph can be rebuilt for an action chosen earlier on the
// inference path (the training replay). A forced decision consumes no
// randomness.
type forced struct {
	choice int // candidate index
	limit  int // parallelism level (as sampled, before any ablation override)
	class  int // class id, or -1
}

// Decide runs the policy heads over the embeddings and returns the decision.
func (p *Policy) Decide(emb *gnn.Embeddings, req Request, rng *rand.Rand) Decision {
	return p.decide(emb, req, rng, nil)
}

// ReplayDecision rebuilds the tracked (differentiable) computation of a
// decision whose action is already known: the same op-for-op graph Decide
// builds — identical log-probability and entropy values — with the sampling
// replaced by the recorded action. It is the per-decision "direct tape"
// reference the batched episode replay is verified against.
func (p *Policy) ReplayDecision(emb *gnn.Embeddings, req Request, choice, limit, class int) Decision {
	return p.decide(emb, req, nil, &forced{choice: choice, limit: limit, class: class})
}

// decide implements Decide; when f is non-nil the action is forced instead
// of sampled and rng is never touched.
func (p *Policy) decide(emb *gnn.Embeddings, req Request, rng *rand.Rand, f *forced) Decision {
	if len(req.Cands) == 0 {
		panic("policy: no candidates")
	}
	n := len(req.Cands)

	// Node selection: rows [e_v, y_i, z] for each candidate, scored by Q.
	nodeRows := make([]*nn.Tensor, n)
	for i, c := range req.Cands {
		e := nn.GatherRows(emb.Nodes[c.JobIdx], []int{c.NodeIdx})
		y := nn.GatherRows(emb.Jobs, []int{c.JobIdx})
		nodeRows[i] = nn.ConcatCols(e, y, emb.Global)
	}
	scores := p.Q.Forward(nn.ConcatRows(nodeRows...)) // n×1
	logp := nn.LogSoftmax(scores)
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = math.Exp(logp.Data[i])
	}
	choice := 0
	if f != nil {
		choice = f.choice
	} else {
		choice = sample(probs, rng, req.Greedy)
	}
	ent := nn.Scale(nn.Sum(nn.Mul(nn.Softmax(scores), logp)), -1)
	logProb := nn.Pick(logp, choice)

	// Parallelism limit for the chosen candidate's job.
	chosen := req.Cands[choice]
	minL := req.MinLimit
	if req.MinLimits != nil {
		minL = req.MinLimits[choice]
	}
	if minL < 1 {
		minL = 1
	}
	if minL > p.Cfg.NumLimits {
		minL = p.Cfg.NumLimits
	}
	nL := p.Cfg.NumLimits - minL + 1
	var limitLogp *nn.Tensor
	if p.Cfg.NoLimitInput {
		all := p.W.Forward(p.limitContext(emb, chosen, 1)) // 1×NumLimits
		idx := make([]int, 0, nL)
		for l := minL - 1; l < p.Cfg.NumLimits; l++ {
			idx = append(idx, l)
		}
		limitLogp = nn.LogSoftmax(nn.GatherRows(reshapeAsCols(all), idx))
	} else {
		rows := make([]*nn.Tensor, nL)
		for i := 0; i < nL; i++ {
			l := minL + i
			rows[i] = nn.ConcatCols(p.limitContext(emb, chosen, 1), nn.Scalar(float64(l)/float64(p.Cfg.NumLimits)))
		}
		limitLogp = nn.LogSoftmax(p.W.Forward(nn.ConcatRows(rows...)))
	}
	var li int
	if f != nil {
		li = f.limit - minL
	} else {
		lprobs := make([]float64, nL)
		for i := range lprobs {
			lprobs[i] = math.Exp(limitLogp.Data[i])
		}
		li = sample(lprobs, rng, req.Greedy)
	}
	limit := minL + li
	logProb = nn.Add(logProb, nn.Pick(limitLogp, li))

	// Executor class (multi-resource).
	class := -1
	classOK := req.ClassOK
	if req.ClassOKPer != nil {
		classOK = req.ClassOKPer[choice]
	}
	if p.C != nil && len(classOK) > 0 {
		var rows []*nn.Tensor
		var ids []int
		y := nn.GatherRows(emb.Jobs, []int{chosen.JobIdx})
		for ci, ok := range classOK {
			if !ok {
				continue
			}
			rows = append(rows, nn.ConcatCols(y, emb.Global, nn.Scalar(req.ClassMem[ci])))
			ids = append(ids, ci)
		}
		if len(rows) > 0 {
			clogp := nn.LogSoftmax(p.C.Forward(nn.ConcatRows(rows...)))
			var ci int
			if f != nil {
				ci = 0
				for i, id := range ids {
					if id == f.class {
						ci = i
						break
					}
				}
			} else {
				cp := make([]float64, len(ids))
				for i := range cp {
					cp[i] = math.Exp(clogp.Data[i])
				}
				ci = sample(cp, rng, req.Greedy)
			}
			class = ids[ci]
			logProb = nn.Add(logProb, nn.Pick(clogp, ci))
		}
	}

	return Decision{
		Choice:    choice,
		Limit:     limit,
		Class:     class,
		LogProb:   logProb,
		Entropy:   ent,
		NodeProbs: probs,
	}
}

// limitContext builds the W input prefix for the chosen candidate, repeated
// reps times: [y, z] normally, [e_v, y, z] with stage-level limits.
func (p *Policy) limitContext(emb *gnn.Embeddings, c Candidate, reps int) *nn.Tensor {
	y := nn.GatherRows(emb.Jobs, []int{c.JobIdx})
	ctx := nn.ConcatCols(y, emb.Global)
	if p.Cfg.StageLevelLimits {
		e := nn.GatherRows(emb.Nodes[c.JobIdx], []int{c.NodeIdx})
		ctx = nn.ConcatCols(e, ctx)
	}
	if reps > 1 {
		return repeatRow(ctx, reps)
	}
	return ctx
}

// reshapeAsCols views a 1×n tensor as n×1, preserving gradients.
func reshapeAsCols(t *nn.Tensor) *nn.Tensor {
	if t.Rows != 1 {
		panic(fmt.Sprintf("policy: expected row vector, got %d×%d", t.Rows, t.Cols))
	}
	rows := make([]*nn.Tensor, t.Cols)
	for i := 0; i < t.Cols; i++ {
		rows[i] = nn.Pick(t, i)
	}
	return nn.ConcatRows(rows...)
}

// sample draws an index from the distribution, or argmax when greedy.
func sample(probs []float64, rng *rand.Rand, greedy bool) int {
	if greedy {
		best, bestP := 0, probs[0]
		for i, p := range probs {
			if p > bestP {
				best, bestP = i, p
			}
		}
		return best
	}
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r <= acc {
			return i
		}
	}
	return len(probs) - 1
}
