// Package graph implements static computation graphs in the TensorFlow
// style (§2.1 of the paper): nodes are operations placed on devices, edges
// are dataflow dependencies, and a graph is partitioned into per-device
// subgraphs connected by Send/Recv node pairs, each subgraph executed by
// its own executor.
package graph

import (
	"fmt"
	"time"

	"switchflow/internal/device"
)

// OpType classifies a node's operation. The cost model maps each type to
// kernel durations and occupancy.
type OpType int

// Operation types. The set covers the CNN and RNN models of the paper's
// evaluation plus the framework-internal ops (iterator, send/recv, apply).
const (
	OpInput OpType = iota + 1
	OpPreprocess
	OpIteratorGetNext
	OpConv2D
	OpDepthwiseConv2D
	OpDense
	OpBatchNorm
	OpActivation
	OpPool
	OpAdd
	OpConcat
	OpSoftmax
	OpEmbedding
	OpLSTMCell
	OpAttention
	OpLoss
	OpGradient
	OpApplyGradient
	OpSend
	OpRecv
	OpNoOp
)

var opNames = map[OpType]string{
	OpInput:           "Input",
	OpPreprocess:      "Preprocess",
	OpIteratorGetNext: "IteratorGetNext",
	OpConv2D:          "Conv2D",
	OpDepthwiseConv2D: "DepthwiseConv2D",
	OpDense:           "Dense",
	OpBatchNorm:       "BatchNorm",
	OpActivation:      "Activation",
	OpPool:            "Pool",
	OpAdd:             "Add",
	OpConcat:          "Concat",
	OpSoftmax:         "Softmax",
	OpEmbedding:       "Embedding",
	OpLSTMCell:        "LSTMCell",
	OpAttention:       "Attention",
	OpLoss:            "Loss",
	OpGradient:        "Gradient",
	OpApplyGradient:   "ApplyGradient",
	OpSend:            "Send",
	OpRecv:            "Recv",
	OpNoOp:            "NoOp",
}

// String implements fmt.Stringer.
func (op OpType) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("OpType(%d)", int(op))
}

// Node is one operation in a computation graph.
type Node struct {
	// ID is the node's index within its graph, assigned by AddNode.
	ID int
	// Name is a unique human-readable label.
	Name string
	// Op is the operation type.
	Op OpType
	// Device is the placement decided at session construction.
	Device device.ID
	// FLOPs is the floating-point work of the op (already scaled by batch).
	FLOPs float64
	// MemBytes is the device-memory traffic of the op (activations +
	// weights read/written), used by the roofline cost model.
	MemBytes int64
	// OutputBytes is the size of the op's output tensor, which crosses
	// Send/Recv edges.
	OutputBytes int64
	// ParamBytes is the size of trainable parameters the op owns (zero for
	// stateless ops). Summed per device it gives the stateful variables of
	// Table 1 (together with optimizer slots).
	ParamBytes int64
	// WeightVars is the number of weight variables (tensors) behind
	// ParamBytes; per-tensor overhead dominates small-tensor state
	// transfer (Table 1). Zero with ParamBytes set counts as one tensor.
	WeightVars int
	// CPUTime, when non-zero, overrides the cost model for CPU-placed ops
	// (e.g. JPEG preprocessing shards).
	CPUTime time.Duration

	in  []*Node
	out []*Node
}

// Inputs returns the node's predecessors. The slice is shared; callers must
// not mutate it.
func (n *Node) Inputs() []*Node { return n.in }

// Outputs returns the node's successors. The slice is shared; callers must
// not mutate it.
func (n *Node) Outputs() []*Node { return n.out }

// Graph is a directed acyclic computation graph.
type Graph struct {
	// Name labels the graph (usually the model name).
	Name string

	nodes []*Node
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node and assigns its ID. The node's Name must be unique
// only for readability; uniqueness is not enforced.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// Connect adds a dataflow edge from src to dst.
func (g *Graph) Connect(src, dst *Node) {
	src.out = append(src.out, dst)
	dst.in = append(dst.in, src)
}

// Nodes returns all nodes in insertion order. The slice is shared; callers
// must not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Validate checks that the graph is acyclic and edges are consistent.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, n := range g.nodes {
		for _, in := range n.in {
			if !containsNode(in.out, n) {
				return fmt.Errorf("graph %s: edge %s->%s missing forward link", g.Name, in.Name, n.Name)
			}
		}
	}
	return nil
}

// TopoOrder returns the nodes in a topological order (stable with respect
// to insertion order), or an error if the graph has a cycle.
func (g *Graph) TopoOrder() ([]*Node, error) {
	indeg := make(map[*Node]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n] = len(n.in)
	}
	// Breadth-first from the roots, preserving insertion order among ties:
	// this is the order TF's executor fills its ready queue in (§2.1).
	var order, frontier []*Node
	for _, n := range g.nodes {
		if indeg[n] == 0 {
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, next)
		for _, succ := range next.out {
			indeg[succ]--
			if indeg[succ] == 0 {
				frontier = append(frontier, succ)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("graph %s: cycle detected (%d of %d nodes ordered)",
			g.Name, len(order), len(g.nodes))
	}
	return order, nil
}

// TotalFLOPs sums FLOPs over all nodes.
func (g *Graph) TotalFLOPs() float64 {
	var total float64
	for _, n := range g.nodes {
		total += n.FLOPs
	}
	return total
}

// ParamBytes sums trainable-parameter bytes over all nodes.
func (g *Graph) ParamBytes() int64 {
	var total int64
	for _, n := range g.nodes {
		total += n.ParamBytes
	}
	return total
}

// WeightTensors counts weight variables across the graph, which drives the
// per-tensor transfer overhead of Table 1.
func (g *Graph) WeightTensors() int {
	count := 0
	for _, n := range g.nodes {
		count += nodeWeightVars(n)
	}
	return count
}

func nodeWeightVars(n *Node) int {
	if n.WeightVars > 0 {
		return n.WeightVars
	}
	if n.ParamBytes > 0 {
		return 1
	}
	return 0
}

func containsNode(list []*Node, n *Node) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}
