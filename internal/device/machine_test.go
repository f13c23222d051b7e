package device

import (
	"fmt"
	"testing"

	"switchflow/internal/sim"
)

func TestMachineDeviceEnumeration(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTwoGPUServer(eng)
	ids := m.Devices()
	if len(ids) != 3 {
		t.Fatalf("Devices() = %v, want cpu + 2 gpus", ids)
	}
	if ids[0] != CPUID || ids[1] != GPUID(0) || ids[2] != GPUID(1) {
		t.Fatalf("Devices() = %v", ids)
	}
	if m.GPU(0).Class.Name != ClassGTX1080Ti.Name {
		t.Fatalf("gpu:0 = %s, want GTX 1080 Ti", m.GPU(0).Class.Name)
	}
	if m.GPU(1).Class.Name != ClassRTX2080Ti.Name {
		t.Fatalf("gpu:1 = %s, want RTX 2080 Ti", m.GPU(1).Class.Name)
	}
	if m.GPU(2) != nil {
		t.Fatal("GPU(2) should be nil on a two-GPU server")
	}
}

func TestMachineCopyPaths(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTwoGPUServer(eng)
	tests := []struct {
		src, dst ID
		want     *CopyEngine
		wantErr  bool
	}{
		{CPUID, GPUID(0), m.HostToDevice(0), false},
		{CPUID, GPUID(1), m.HostToDevice(1), false},
		{GPUID(1), CPUID, m.DeviceToHost(1), false},
		{GPUID(0), GPUID(1), m.Peer(), false},
		{CPUID, CPUID, nil, true},
	}
	for _, tt := range tests {
		got, err := m.CopyPath(tt.src, tt.dst)
		if tt.wantErr {
			if err == nil {
				t.Errorf("CopyPath(%v,%v): want error", tt.src, tt.dst)
			}
			continue
		}
		if err != nil {
			t.Errorf("CopyPath(%v,%v): %v", tt.src, tt.dst, err)
			continue
		}
		if got != tt.want {
			t.Errorf("CopyPath(%v,%v) wrong engine", tt.src, tt.dst)
		}
	}
}

func TestV100ServerHasFourGPUs(t *testing.T) {
	m := NewV100Server(sim.NewEngine())
	if len(m.GPUs) != 4 {
		t.Fatalf("V100 server has %d GPUs, want 4", len(m.GPUs))
	}
	for _, g := range m.GPUs {
		if g.Mem.Capacity() != 32<<30 {
			t.Fatalf("V100 memory = %d, want 32 GiB", g.Mem.Capacity())
		}
	}
}

func TestJetsonTX2Profile(t *testing.T) {
	m := NewJetsonTX2(sim.NewEngine())
	if m.CPU.Cores != 4 {
		t.Fatalf("TX2 cores = %d, want 4", m.CPU.Cores)
	}
	if len(m.GPUs) != 1 {
		t.Fatalf("TX2 GPUs = %d, want 1", len(m.GPUs))
	}
}

func TestDeviceIDString(t *testing.T) {
	tests := []struct {
		id   ID
		want string
	}{
		{CPUID, "cpu:0"},
		{GPUID(0), "gpu:0"},
		{GPUID(3), "gpu:3"},
		{GPUID(namedIndices - 1), "gpu:15"},
		// Outside the precomputed table: formatted on the fly.
		{GPUID(namedIndices), "gpu:16"},
		{GPUID(123), "gpu:123"},
		{GPUID(-1), "gpu:-1"},
		{ID{Kind: KindCPU, Index: 40}, "cpu:40"},
		{ID{}, "kind(0):0"},
		{ID{Kind: Kind(9), Index: 2}, "kind(9):2"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", tt.id, got, tt.want)
		}
	}
	// Every precomputed name is byte-identical to the formatted one.
	for _, k := range []Kind{KindCPU, KindGPU} {
		for i := -1; i <= namedIndices; i++ {
			id := ID{Kind: k, Index: i}
			if got, want := id.String(), fmt.Sprintf("%s:%d", k, i); got != want {
				t.Errorf("%#v.String() = %q, want %q", id, got, want)
			}
		}
	}
}

func TestDeviceIDStringDoesNotAllocate(t *testing.T) {
	ids := []ID{CPUID, GPUID(0), GPUID(3), GPUID(namedIndices - 1)}
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			sink = id.String()
		}
	})
	if allocs != 0 {
		t.Errorf("ID.String allocated %.1f times per run for in-table ids, want 0", allocs)
	}
	_ = sink
}
