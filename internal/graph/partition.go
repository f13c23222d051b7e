package graph

import (
	"fmt"
	"time"

	"switchflow/internal/device"
)

// Subgraph is the slice of a graph placed on one device, executed by one
// executor (§2.1: "there could be multiple executors in a session, each
// including nodes to be executed on a single device").
type Subgraph struct {
	// Graph is the parent graph.
	Graph *Graph
	// Device is the placement all member nodes share.
	Device device.ID
	// Nodes are the member nodes in parent topological order, including
	// the Send/Recv nodes synthesized at partition boundaries.
	Nodes []*Node

	plan *ExecPlan
}

// ExecPlan is the per-activation executor bootstrap for a subgraph:
// intra-subgraph dependency counts and the initially-ready frontier. It is
// identical for every iteration of a job, so the executor copies the
// template instead of recomputing membership maps each activation.
type ExecPlan struct {
	// NumNodes is the parent graph's node count; per-node executor state
	// is indexed by Node.ID, which is dense in the parent graph.
	NumNodes int
	// Deps holds, per node ID, the number of intra-subgraph dependencies;
	// -1 marks nodes that belong to other subgraphs.
	Deps []int32
	// Ready lists member nodes with no intra-subgraph dependencies, in
	// subgraph order.
	Ready []*Node

	// launches holds the launch tables priced so far, one per (GPU class,
	// eager) the subgraph has run with; almost always exactly one.
	launches []launchTable
}

// Launch is what one op costs a GPU executor, priced once per (GPU class,
// eager) instead of on every iteration.
type Launch struct {
	// Work is the kernel's solo run time on the stream; zero for ops that
	// launch no kernel.
	Work time.Duration
	// Worker is how long dispatching the op occupies a worker thread.
	Worker time.Duration
	// Occupancy is the kernel's launch occupancy in [0,1].
	Occupancy float64
	// Expensive sends the op to its own local queue when it becomes ready
	// (TF's expensive/inexpensive classification).
	Expensive bool
}

type launchTable struct {
	class device.GPUClass
	eager bool
	ops   []Launch
}

// LaunchTable returns the launch table stored for (class, eager), indexed
// by node ID, or nil when none is stored yet. The plan, like its graph, is
// owned by a single engine, so no locking is needed.
func (p *ExecPlan) LaunchTable(class device.GPUClass, eager bool) []Launch {
	for i := range p.launches {
		if t := &p.launches[i]; t.eager == eager && t.class == class {
			return t.ops
		}
	}
	return nil
}

// SetLaunchTable stores ops, indexed by node ID, as the launch table for
// (class, eager).
func (p *ExecPlan) SetLaunchTable(class device.GPUClass, eager bool, ops []Launch) {
	p.launches = append(p.launches, launchTable{class: class, eager: eager, ops: ops})
}

// Plan returns the subgraph's executor bootstrap, computing and caching it
// on first use. The subgraph must not gain or lose nodes afterwards (it
// never does: partitioning is the last structural change to a graph).
func (s *Subgraph) Plan() *ExecPlan {
	if s.plan != nil {
		return s.plan
	}
	p := &ExecPlan{NumNodes: len(s.Graph.nodes)}
	p.Deps = make([]int32, p.NumNodes)
	for i := range p.Deps {
		p.Deps[i] = -1
	}
	for _, n := range s.Nodes {
		p.Deps[n.ID] = 0
	}
	for _, n := range s.Nodes {
		deps := int32(0)
		for _, in := range n.in {
			if p.Deps[in.ID] >= 0 {
				deps++
			}
		}
		p.Deps[n.ID] = deps
		if deps == 0 {
			p.Ready = append(p.Ready, n)
		}
	}
	s.plan = p
	return p
}

// Name returns a readable label, e.g. "resnet50@gpu:0".
func (s *Subgraph) Name() string {
	return fmt.Sprintf("%s@%s", s.Graph.Name, s.Device)
}

// ParamBytes sums parameter bytes of member nodes.
func (s *Subgraph) ParamBytes() int64 {
	var total int64
	for _, n := range s.Nodes {
		total += n.ParamBytes
	}
	return total
}

// WeightTensors counts weight variables across member nodes.
func (s *Subgraph) WeightTensors() int {
	count := 0
	for _, n := range s.Nodes {
		count += nodeWeightVars(n)
	}
	return count
}

// Partition splits g into per-device subgraphs, inserting a Send node on
// the producer's device and a Recv node on the consumer's device for every
// edge that crosses devices. It mutates g by appending the Send/Recv nodes.
// Subgraphs come back ordered CPU first, then GPUs by index, matching the
// executor creation order in TF sessions.
func Partition(g *Graph) ([]*Subgraph, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Rewire cross-device edges through Send/Recv pairs. Iterate over a
	// snapshot because we append nodes while rewiring.
	for _, n := range order {
		outs := append([]*Node(nil), n.out...)
		for _, succ := range outs {
			if succ.Device == n.Device || succ.Op == OpSend || succ.Op == OpRecv {
				continue
			}
			insertSendRecv(g, n, succ)
		}
	}
	// Bucket nodes per device, preserving a fresh topological order that
	// includes the synthesized nodes.
	order, err = g.TopoOrder()
	if err != nil {
		return nil, err
	}
	buckets := make(map[device.ID][]*Node)
	for _, n := range order {
		buckets[n.Device] = append(buckets[n.Device], n)
	}
	var subs []*Subgraph
	if nodes, ok := buckets[device.CPUID]; ok {
		subs = append(subs, &Subgraph{Graph: g, Device: device.CPUID, Nodes: nodes})
	}
	maxGPU := -1
	for id := range buckets {
		if id.Kind == device.KindGPU && id.Index > maxGPU {
			maxGPU = id.Index
		}
	}
	for i := 0; i <= maxGPU; i++ {
		if nodes, ok := buckets[device.GPUID(i)]; ok {
			subs = append(subs, &Subgraph{Graph: g, Device: device.GPUID(i), Nodes: nodes})
		}
	}
	return subs, nil
}

// insertSendRecv replaces the direct edge src->dst with
// src -> send(src.Device) -> recv(dst.Device) -> dst.
func insertSendRecv(g *Graph, src, dst *Node) {
	send := g.AddNode(&Node{
		Name:        fmt.Sprintf("send_%s_to_%s", src.Name, dst.Device),
		Op:          OpSend,
		Device:      src.Device,
		OutputBytes: src.OutputBytes,
	})
	recv := g.AddNode(&Node{
		Name:        fmt.Sprintf("recv_%s_on_%s", src.Name, dst.Device),
		Op:          OpRecv,
		Device:      dst.Device,
		OutputBytes: src.OutputBytes,
	})
	removeEdge(src, dst)
	g.Connect(src, send)
	g.Connect(send, recv)
	g.Connect(recv, dst)
}

func removeEdge(src, dst *Node) {
	src.out = deleteNode(src.out, dst)
	dst.in = deleteNode(dst.in, src)
}

func deleteNode(list []*Node, n *Node) []*Node {
	for i, x := range list {
		if x == n {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
