package control

import (
	"net/http/httptest"
	"testing"
)

// preemptingMix is a five-job mix on the 4-GPU NVLink server: legacy,
// elastic and gang trainers, and two batched serving jobs that outrank
// them, so the spine carries a steady stream of preemptions on top of
// the kernel spans that fill the recorder's window.
var preemptingMix = []JobRequest{
	{Name: "vgg16-legacy", Model: "VGG16", Batch: 32, Train: true, Priority: 1, GPU: 1, FallbackGPUs: []int{2}},
	{Name: "resnet50-elastic", Model: "ResNet50", Batch: 32, Train: true, Priority: 1, VNodes: []int{0}},
	{Name: "inception-gang", Model: "InceptionV3", Batch: 32, Train: true, Priority: 1, Gang: true, VNodes: []int{2, 3}},
	{Name: "serve-resnet50", Model: "ResNet50", Batch: 1, Priority: 2, GPU: 0,
		ServeEveryMS: 40, PoissonArrivals: true, ArrivalSeed: 7000,
		SLOMillis: 150, MaxBatch: 8, BatchWaitMillis: 5},
	{Name: "serve-mobilenetv2", Model: "MobileNetV2", Batch: 1, Priority: 2, GPU: 3,
		ServeEveryMS: 30, PoissonArrivals: true, ArrivalSeed: 7001,
		SLOMillis: 100, MaxBatch: 8, BatchWaitMillis: 2},
}

// wrappedServer runs preemptingMix until the recorder's window has
// evicted events, so its counts and its window disagree.
func wrappedServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := NewServer("nvlink")
	if err != nil {
		tb.Fatal(err)
	}
	for _, req := range preemptingMix {
		if _, err := s.submitJobLocked(req); err != nil {
			tb.Fatalf("submit %s: %v", req.Name, err)
		}
	}
	for step := 0; s.recorder.Dropped() == 0; step++ {
		if step == 60 {
			tb.Fatal("recorder window never wrapped in 30s of virtual time")
		}
		s.advanceLocked(AdvanceRequest{ForMillis: 500})
	}
	return s
}

func TestMetricsExactAfterWrap(t *testing.T) {
	s := wrappedServer(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var status StatusInfo
	var metrics MetricsInfo
	doJSON(t, "GET", ts.URL+"/v1/status", nil, &status)
	doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &metrics)
	if metrics.DroppedEvents == 0 || status.Preemptions == 0 {
		t.Fatalf("want a wrapped window and some preemptions, got %+v / %+v", metrics, status)
	}
	if got := metrics.ByKind["Preempt"]; got != status.Preemptions {
		t.Errorf("byKind[Preempt] = %d, /v1/status preemptions = %d (counts must cover evicted events)",
			got, status.Preemptions)
	}
	sum := 0
	for _, n := range metrics.ByKind {
		sum += n
	}
	if sum != metrics.Events {
		t.Errorf("byKind sums to %d, events = %d", sum, metrics.Events)
	}
	if want := metrics.RetainedEvents + int(metrics.DroppedEvents); metrics.Events != want {
		t.Errorf("events = %d, retainedEvents %d + droppedEvents %d = %d",
			metrics.Events, metrics.RetainedEvents, metrics.DroppedEvents, want)
	}
	if metrics.RetainedEvents != recorderCap {
		t.Errorf("retainedEvents = %d, want the full window (%d)", metrics.RetainedEvents, recorderCap)
	}
}

// A scrape reads counters, never the window: it costs the same on an
// empty recorder as on a full, wrapped one.
func TestMetricsScrapeCostIndependentOfWindow(t *testing.T) {
	empty, err := NewServer("nvlink")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := wrappedServer(t)
	scrape := func(s *Server) float64 {
		return testing.AllocsPerRun(50, func() { _ = s.metricsLocked() })
	}
	if e, w := scrape(empty), scrape(wrapped); e != w {
		t.Errorf("metricsLocked allocates %.1f times on an empty recorder, %.1f on a wrapped one", e, w)
	}
}

func BenchmarkMetricsScrape(b *testing.B) {
	s := wrappedServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.metricsLocked()
	}
}
