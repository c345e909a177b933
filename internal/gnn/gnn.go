// Package gnn implements Decima's graph neural network (§5.1): a scalable
// embedding of job DAGs into per-node, per-job and global vectors, built
// from a small set of reusable non-linear transformations.
//
// Per-node embeddings follow Eq. (1):
//
//	e_v = g( Σ_{u ∈ children(v)} f(e_u) ) + x̂_v
//
// where x̂_v is the node's raw feature vector projected into embedding
// space, and f, g are small MLPs shared across all nodes and message
// passing steps. The two-level non-linearity (f AND g) is what lets the
// network express max-like aggregations such as a DAG's critical path
// (Appendix E); the SingleLevel option ablates g for the Fig. 19
// comparison.
//
// Per-job summaries aggregate (x̂_v, e_v) over each DAG through a second
// pair of transforms, and a global summary aggregates the per-job
// summaries through a third pair — six transformations in total, plus the
// feature projection.
//
// The forward pass batches nodes level by level (children before parents,
// grouped by height), so cost scales with DAG depth rather than node count.
//
// Three forwards share that arithmetic bit for bit: the tracked Forward
// (autograd, training), ForwardInference (no-grad fused kernels + scratch
// arena, the per-decision fast path), and ForwardBatch (many graphs in one
// tracked multi-graph pass, the training replay).
package gnn

import (
	"math/rand"

	"repro/internal/dag"
	"repro/internal/nn"
)

// Graph is the GNN's input view of one job DAG: a feature matrix plus
// adjacency and height metadata. Build one with NewGraph or directly from
// precomputed features.
type Graph struct {
	// Feats is the n×F matrix of raw node features.
	Feats *nn.Tensor
	// Children lists, per node, the downstream stage indices.
	Children [][]int
	// Heights is the longest-path-to-leaf per node (dag.Heights).
	Heights []int
}

// NewGraph assembles a Graph for a job from a prebuilt feature matrix.
func NewGraph(j *dag.Job, feats *nn.Tensor) *Graph {
	ch := make([][]int, len(j.Stages))
	for i, s := range j.Stages {
		ch[i] = s.Children
	}
	return &Graph{Feats: feats, Children: ch, Heights: j.Heights()}
}

// Config sizes the network.
type Config struct {
	// FeatDim is the raw node feature dimensionality.
	FeatDim int
	// EmbedDim is the embedding dimensionality (the paper uses e.g. R¹⁶;
	// 8 keeps single-core training fast).
	EmbedDim int
	// Hidden lists the hidden-layer widths of every transformation MLP
	// (§6.1: two hidden layers of 32 and 16 units).
	Hidden []int
	// SingleLevel ablates the outer non-linearity g, reducing Eq. (1) to
	// e_v = Σ f(e_u) + x̂_v (the weak baseline of Appendix E).
	SingleLevel bool
}

// DefaultConfig returns the architecture used across the evaluation,
// scaled for single-core training.
func DefaultConfig(featDim int) Config {
	return Config{FeatDim: featDim, EmbedDim: 8, Hidden: []int{16, 8}}
}

// GNN holds the seven learned transformations.
type GNN struct {
	Cfg Config

	Prep  *nn.MLP // feature projection F → D
	FNode *nn.MLP // message transform D → D
	GNode *nn.MLP // aggregation transform D → D
	FJob  *nn.MLP // per-job message transform 2D → D
	GJob  *nn.MLP // per-job aggregation D → D
	FGlob *nn.MLP // global message transform D → D
	GGlob *nn.MLP // global aggregation D → D
}

// New builds a GNN with Xavier-initialised weights.
func New(cfg Config, rng *rand.Rand) *GNN {
	mlp := func(in, out int) *nn.MLP {
		sizes := append([]int{in}, cfg.Hidden...)
		sizes = append(sizes, out)
		return nn.NewMLP(sizes, nn.ActLeakyReLU, rng)
	}
	d := cfg.EmbedDim
	return &GNN{
		Cfg:   cfg,
		Prep:  mlp(cfg.FeatDim, d),
		FNode: mlp(d, d),
		GNode: mlp(d, d),
		FJob:  mlp(cfg.FeatDim+d, d),
		GJob:  mlp(d, d),
		FGlob: mlp(d, d),
		GGlob: mlp(d, d),
	}
}

// Params returns all trainable tensors in a stable order.
func (g *GNN) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, m := range []*nn.MLP{g.Prep, g.FNode, g.GNode, g.FJob, g.GJob, g.FGlob, g.GGlob} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// Embeddings is the GNN's output: one node-embedding matrix per job, a
// per-job summary matrix, and the global summary vector.
type Embeddings struct {
	// Nodes[i] is job i's n_i×D node embedding matrix.
	Nodes []*nn.Tensor
	// Jobs is the numJobs×D per-job summary matrix.
	Jobs *nn.Tensor
	// Global is the 1×D cluster-level summary.
	Global *nn.Tensor
}

// EmbedNodes runs the per-node message passing for one graph, returning the
// n×D node embedding matrix.
func (g *GNN) EmbedNodes(gr *Graph) *nn.Tensor {
	x := g.Prep.Forward(gr.Feats) // n×D projected features
	e := x
	maxH := 0
	for _, h := range gr.Heights {
		if h > maxH {
			maxH = h
		}
	}
	for h := 1; h <= maxH; h++ {
		// Gather this level's parents and their children.
		var parents []int
		var childIdx []int
		var seg []int
		for v, hv := range gr.Heights {
			if hv != h {
				continue
			}
			pi := len(parents)
			parents = append(parents, v)
			for _, c := range gr.Children[v] {
				childIdx = append(childIdx, c)
				seg = append(seg, pi)
			}
		}
		if len(parents) == 0 {
			continue
		}
		msgs := g.FNode.Forward(nn.GatherRows(e, childIdx))
		agg := nn.SegmentSum(msgs, seg, len(parents))
		if !g.Cfg.SingleLevel {
			agg = g.GNode.Forward(agg)
		}
		rows := nn.Add(agg, nn.GatherRows(x, parents))
		e = nn.ScatterRows(e, parents, rows)
	}
	return e
}

// Forward embeds all graphs, producing node, job and global embeddings in
// one differentiable computation.
func (g *GNN) Forward(graphs []*Graph) *Embeddings {
	emb := &Embeddings{}
	jobRows := make([]*nn.Tensor, 0, len(graphs))
	for _, gr := range graphs {
		e := g.EmbedNodes(gr)
		emb.Nodes = append(emb.Nodes, e)
		// Per-job summary over (x_v, e_v) pairs (the DAG-level summary node
		// of Fig. 5b has every node as a child).
		pair := nn.ConcatCols(gr.Feats, e)
		y := g.GJob.Forward(nn.SumRows(g.FJob.Forward(pair)))
		jobRows = append(jobRows, y)
	}
	if len(jobRows) == 0 {
		emb.Jobs = nn.Zeros(0, g.Cfg.EmbedDim)
		emb.Global = nn.Zeros(1, g.Cfg.EmbedDim)
		return emb
	}
	emb.Jobs = nn.ConcatRows(jobRows...)
	emb.Global = g.GGlob.Forward(nn.SumRows(g.FGlob.Forward(emb.Jobs)))
	return emb
}

// EmbedNodesNaive computes the same per-node embeddings as EmbedNodes but
// node by node, without level batching. It exists as a correctness
// cross-check and as the baseline for the level-batching ablation benchmark
// (see DESIGN.md at the repository root, which covers level batching and
// the inference fast path).
func (g *GNN) EmbedNodesNaive(gr *Graph) *nn.Tensor {
	x := g.Prep.Forward(gr.Feats)
	n := x.Rows
	// Process nodes in increasing height so children are done first.
	order := make([]int, 0, n)
	maxH := 0
	for _, h := range gr.Heights {
		if h > maxH {
			maxH = h
		}
	}
	for h := 0; h <= maxH; h++ {
		for v, hv := range gr.Heights {
			if hv == h {
				order = append(order, v)
			}
		}
	}
	e := x
	for _, v := range order {
		if len(gr.Children[v]) == 0 {
			continue
		}
		msgs := g.FNode.Forward(nn.GatherRows(e, gr.Children[v]))
		agg := nn.SumRows(msgs)
		if !g.Cfg.SingleLevel {
			agg = g.GNode.Forward(agg)
		}
		row := nn.Add(agg, nn.GatherRows(x, []int{v}))
		e = nn.ScatterRows(e, []int{v}, row)
	}
	return e
}
