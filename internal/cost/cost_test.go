package cost

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/models"
	"switchflow/internal/occupancy"
)

func TestKernelDurationRooflineCompute(t *testing.T) {
	// A pure-compute conv: 1 GFLOP on a V100 at conv efficiency
	// 0.65 x class efficiency 0.55 of 15.7 TFLOPS.
	n := &graph.Node{Op: graph.OpConv2D, FLOPs: 1e9}
	got := KernelDuration(n, device.ClassV100)
	sec := 1e9 / (15.7e12 * 0.65 * 0.55)
	want := time.Duration(sec * float64(time.Second))
	if diff := (got - want).Abs(); diff > time.Microsecond {
		t.Fatalf("KernelDuration = %v, want ~%v", got, want)
	}
}

func TestKernelDurationMemoryBound(t *testing.T) {
	// A BN touching 1 GB is bandwidth bound on any GPU.
	n := &graph.Node{Op: graph.OpBatchNorm, FLOPs: 1e6, MemBytes: 1 << 30}
	got := KernelDuration(n, device.ClassV100)
	sec := float64(1<<30) / (900e9 * 0.75)
	want := time.Duration(sec * float64(time.Second))
	if diff := (got - want).Abs(); diff > 10*time.Microsecond {
		t.Fatalf("KernelDuration = %v, want ~%v", got, want)
	}
}

func TestKernelDurationMinimumFloor(t *testing.T) {
	n := &graph.Node{Op: graph.OpAdd, FLOPs: 10}
	if got := KernelDuration(n, device.ClassV100); got < 2*time.Microsecond {
		t.Fatalf("tiny kernel duration %v below floor", got)
	}
}

func TestKernelDurationZeroForNonGPUOps(t *testing.T) {
	for _, op := range []graph.OpType{graph.OpSend, graph.OpRecv, graph.OpPreprocess, graph.OpNoOp} {
		n := &graph.Node{Op: op, FLOPs: 1e9}
		if got := KernelDuration(n, device.ClassV100); got != 0 {
			t.Errorf("KernelDuration(%v) = %v, want 0", op, got)
		}
	}
}

func TestSlowerGPUsAreSlower(t *testing.T) {
	n := &graph.Node{Op: graph.OpConv2D, FLOPs: 1e9, MemBytes: 1 << 20}
	v100 := KernelDuration(n, device.ClassV100)
	gtx := KernelDuration(n, device.ClassGTX1080Ti)
	tx2 := KernelDuration(n, device.ClassJetsonTX2)
	if !(v100 < gtx && gtx < tx2) {
		t.Fatalf("ordering violated: V100 %v, 1080Ti %v, TX2 %v", v100, gtx, tx2)
	}
}

func TestOccupancyHeavyVsLight(t *testing.T) {
	conv := &graph.Node{Op: graph.OpConv2D}
	add := &graph.Node{Op: graph.OpAdd}
	if Occupancy(conv) < 0.5 {
		t.Errorf("conv occupancy %v should be register-bound (>=0.5)", Occupancy(conv))
	}
	if Occupancy(add) >= 0.5 {
		t.Errorf("add occupancy %v should be light", Occupancy(add))
	}
}

func TestIsExpensiveClassification(t *testing.T) {
	class := device.ClassV100
	conv := &graph.Node{Op: graph.OpConv2D, FLOPs: 1e6}
	if !IsExpensive(conv, class) {
		t.Error("conv should be expensive regardless of size")
	}
	relu := &graph.Node{Op: graph.OpActivation, FLOPs: 100}
	if IsExpensive(relu, class) {
		t.Error("tiny relu should be inexpensive")
	}
	bigBN := &graph.Node{Op: graph.OpBatchNorm, MemBytes: 1 << 30}
	if !IsExpensive(bigBN, class) {
		t.Error("1 GiB batchnorm should classify expensive by duration")
	}
}

func TestCPUDurationPreprocessOverride(t *testing.T) {
	n := &graph.Node{Op: graph.OpPreprocess, CPUTime: 100 * time.Millisecond}
	if got := CPUDuration(n, device.ClassXeonDual); got != 100*time.Millisecond {
		t.Fatalf("Xeon preprocess = %v, want 100ms", got)
	}
	// The TX2's ARM cores are 2x slower.
	slow := CPUDuration(n, device.ClassCortexA57)
	if slow != 200*time.Millisecond {
		t.Fatalf("ARM preprocess = %v, want 200ms", slow)
	}
}

func TestCPUDurationComputeOps(t *testing.T) {
	n := &graph.Node{Op: graph.OpConv2D, FLOPs: 32e9}
	got := CPUDuration(n, device.ClassXeonDual)
	if diff := (got - time.Second).Abs(); diff > time.Millisecond {
		t.Fatalf("32 GFLOP conv on a 32 GFLOPS core = %v, want ~1s", got)
	}
}

func TestResNet50TrainStepCalibration(t *testing.T) {
	// The headline calibration target (§2.2 / Figure 2): solo ResNet50
	// training at BS=16 on a V100 runs at ~226 images/s. Sum the kernel
	// durations of the training graph's GPU nodes and check the implied
	// throughput is in a plausible band around that.
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(models.BuildConfig{Batch: 16, Training: true, Device: device.GPUID(0)})
	if err != nil {
		t.Fatal(err)
	}
	var gpuTime time.Duration
	for _, n := range g.Nodes() {
		if n.Device == device.GPUID(0) {
			gpuTime += KernelDuration(n, device.ClassV100)
		}
	}
	throughput := 16 / gpuTime.Seconds()
	if throughput < 160 || throughput > 320 {
		t.Fatalf("solo ResNet50 BS=16 V100 training = %.0f img/s, want 160-320 (paper: 226)",
			throughput)
	}
}

// TestFootprintsBackedByOccupancyCalculator ties the cost model's
// admission footprints to the occupancy analysis the paper ran (§2.2):
// the cuDNN conv launch profile is register-bound with low warp
// occupancy, so its device footprint must mark it non-concurrent (>= 0.5
// triggers serialization in the GPU admission model), while elementwise
// launches must not.
func TestFootprintsBackedByOccupancyCalculator(t *testing.T) {
	conv := occupancy.LaunchConfig{
		ThreadsPerBlock:    256,
		RegistersPerThread: 96,
		SharedMemPerBlock:  40 << 10,
		GridBlocks:         4096,
	}
	a, err := occupancy.Analyze(conv, occupancy.Volta)
	if err != nil {
		t.Fatal(err)
	}
	if !a.RegisterBound {
		t.Fatal("conv profile not register bound; §2.2 premise broken")
	}
	foot, err := occupancy.DeviceFootprint(conv, occupancy.Volta, device.ClassV100.SMs)
	if err != nil {
		t.Fatal(err)
	}
	convNode := &graph.Node{Op: graph.OpConv2D}
	if foot < 0.5 != (Occupancy(convNode) < 0.5) {
		t.Fatalf("cost footprint %.2f disagrees with calculator footprint %.2f",
			Occupancy(convNode), foot)
	}

	add := occupancy.LaunchConfig{ThreadsPerBlock: 256, RegistersPerThread: 24, GridBlocks: 128}
	addFoot, err := occupancy.DeviceFootprint(add, occupancy.Volta, device.ClassV100.SMs)
	if err != nil {
		t.Fatal(err)
	}
	addNode := &graph.Node{Op: graph.OpAdd}
	if addFoot >= 0.5 || Occupancy(addNode) >= 0.5 {
		t.Fatalf("elementwise marked non-concurrent: calc %.2f, cost %.2f",
			addFoot, Occupancy(addNode))
	}
}

func TestKernelDurationMemoMatchesSlowPath(t *testing.T) {
	nodes := []*graph.Node{
		{Op: graph.OpConv2D, FLOPs: 2.3e9, MemBytes: 48 << 20},
		{Op: graph.OpDense, FLOPs: 5.1e8, MemBytes: 12 << 20},
		{Op: graph.OpAdd, FLOPs: 1e6, MemBytes: 4 << 20},
		{Op: graph.OpLSTMCell, FLOPs: 9.7e8, MemBytes: 90 << 20},
		{Op: graph.OpSend}, // no kernel
	}
	classes := []device.GPUClass{
		device.ClassV100, device.ClassRTX2080Ti, device.ClassGTX1080Ti, device.ClassJetsonTX2,
	}
	for _, n := range nodes {
		for _, class := range classes {
			want := time.Duration(0)
			if _, ok := computeEfficiency[n.Op]; ok {
				want = kernelDurationSlow(n, class)
			}
			// Twice: cold (fills memo) and warm (reads memo).
			if got := KernelDuration(n, class); got != want {
				t.Errorf("%v on %s cold = %v, want %v", n.Op, class.Name, got, want)
			}
			if got := KernelDuration(n, class); got != want {
				t.Errorf("%v on %s warm = %v, want %v", n.Op, class.Name, got, want)
			}
		}
	}
}

func TestKernelDurationDistinguishesClasses(t *testing.T) {
	n := &graph.Node{Op: graph.OpConv2D, FLOPs: 2.3e9, MemBytes: 48 << 20}
	v100 := KernelDuration(n, device.ClassV100)
	tx2 := KernelDuration(n, device.ClassJetsonTX2)
	if v100 >= tx2 {
		t.Fatalf("memo conflated classes: V100 %v not faster than TX2 %v", v100, tx2)
	}
}

func BenchmarkKernelDurationMemoized(b *testing.B) {
	n := &graph.Node{Op: graph.OpConv2D, FLOPs: 2.3e9, MemBytes: 48 << 20}
	KernelDuration(n, device.ClassV100) // warm the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KernelDuration(n, device.ClassV100)
	}
}

func BenchmarkKernelDurationSlowPath(b *testing.B) {
	n := &graph.Node{Op: graph.OpConv2D, FLOPs: 2.3e9, MemBytes: 48 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelDurationSlow(n, device.ClassV100)
	}
}

// TestSerialEstimateSubLinearScaling: the batch pricing the dynamic
// batcher relies on. Launch overheads and minimum kernel times are fixed
// per kernel, so a batch-8 inference graph must price strictly below
// eight batch-1 graphs (and strictly above one).
func TestSerialEstimateSubLinearScaling(t *testing.T) {
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	gpuSub := func(batch int) *graph.Subgraph {
		g, err := spec.Build(models.BuildConfig{Batch: batch, Training: false, Device: device.GPUID(0)})
		if err != nil {
			t.Fatal(err)
		}
		subs, err := graph.Partition(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if sub.Device == device.GPUID(0) {
				return sub
			}
		}
		t.Fatal("no GPU subgraph")
		return nil
	}
	one := SerialGPUEstimate(gpuSub(1), device.ClassV100)
	eight := SerialGPUEstimate(gpuSub(8), device.ClassV100)
	if one <= 0 || eight <= 0 {
		t.Fatalf("estimates must be positive: b1=%v b8=%v", one, eight)
	}
	if eight <= one {
		t.Fatalf("batch 8 (%v) must cost more than batch 1 (%v)", eight, one)
	}
	if eight >= 8*one {
		t.Fatalf("batch 8 (%v) must cost less than 8x batch 1 (%v): batching must amortize launches", eight, 8*one)
	}
}

func TestSerialCPUEstimatePositive(t *testing.T) {
	spec, err := models.ByName("MobileNet")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(models.BuildConfig{Batch: 1, Training: false, Device: device.CPUID})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, sub := range subs {
		total += SerialCPUEstimate(sub, device.ClassXeonDual)
	}
	if total <= 0 {
		t.Fatalf("all-CPU estimate must be positive, got %v", total)
	}
}

// TestZeroClassIsNeverPriced: a CPU executor classifies ops with the zero
// GPU class. There is no kernel to price there, so only the always-
// expensive families are expensive, and no zero-class result enters the
// memo. Pricing it would divide by zero throughput and convert +Inf to a
// Duration, a conversion the Go spec leaves to the platform.
func TestZeroClassIsNeverPriced(t *testing.T) {
	for _, op := range []graph.OpType{graph.OpBatchNorm, graph.OpPool, graph.OpActivation,
		graph.OpAdd, graph.OpSoftmax, graph.OpLoss, graph.OpEmbedding} {
		n := &graph.Node{Op: op, FLOPs: 7.7e9, MemBytes: 770 << 20}
		if IsExpensive(n, device.GPUClass{}) {
			t.Errorf("%v is expensive on a CPU executor", op)
		}
		if d := KernelDuration(n, device.GPUClass{}); d != 0 {
			t.Errorf("%v on the zero class = %v, want 0", op, d)
		}
	}
	for _, op := range []graph.OpType{graph.OpConv2D, graph.OpDense, graph.OpPreprocess} {
		if !IsExpensive(&graph.Node{Op: op, FLOPs: 1}, device.GPUClass{}) {
			t.Errorf("%v is inexpensive on a CPU executor", op)
		}
	}
	kernelMemo.Range(func(k, _ any) bool {
		if key := k.(kernelKey); key.class == (device.GPUClass{}) {
			t.Errorf("memo holds a zero-class price for %v", key.op)
		}
		return true
	})
}
