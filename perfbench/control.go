package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"switchflow/internal/control"
)

// control is the HTTP/JSON workload: one 4x V100 NVLink server driven in
// process through its handler by one closed-loop client, which submits
// five jobs (legacy, elastic, gang, two SLO-batched serving jobs that
// preempt the trainers) and then advances virtual time in 20 ms steps,
// scraping /v1/metrics every 10th step, listing /v1/jobs every 50th and
// resizing the elastic trainer every 100th.
const (
	controlHorizon     = 30 * time.Second
	controlAdvanceMS   = 20
	controlScrapeEvery = 10
	controlListEvery   = 50
	controlResizeEvery = 100
)

type controlSystem struct {
	h       http.Handler
	horizon time.Duration
	now     time.Duration
	elastic int // job id of the elastic trainer
	vnodes  int // its current vnode count

	calls        int      // requests served
	failed       []string // the ones that failed
	scrapes      []time.Duration
	lists        []time.Duration
	metricsBytes int
}

// controlJobs is the submission mix. The serving jobs outrank the
// trainers (priority 2 vs 1), so their arrivals preempt the elastic
// trainer on GPU 0 and the gang on GPU 3.
func controlJobs(variant int) []control.JobRequest {
	seed := int64(7000 + 2*variant)
	return []control.JobRequest{
		{Name: "vgg16-legacy", Model: "VGG16", Batch: 32, Train: true, Priority: 1, GPU: 1, FallbackGPUs: []int{2}},
		{Name: "resnet50-elastic", Model: "ResNet50", Batch: 32, Train: true, Priority: 1, VNodes: []int{0}},
		{Name: "inception-gang", Model: "InceptionV3", Batch: 32, Train: true, Priority: 1, Gang: true, VNodes: []int{2, 3}},
		{Name: "serve-resnet50", Model: "ResNet50", Batch: 1, Priority: 2, GPU: 0,
			ServeEveryMS: 40, PoissonArrivals: true, ArrivalSeed: seed,
			SLOMillis: 150, MaxBatch: 8, BatchWaitMillis: 5},
		{Name: "serve-mobilenetv2", Model: "MobileNetV2", Batch: 1, Priority: 2, GPU: 3,
			ServeEveryMS: 30, PoissonArrivals: true, ArrivalSeed: seed + 1,
			SLOMillis: 100, MaxBatch: 8, BatchWaitMillis: 2},
	}
}

func setupControl(o runOptions) (system, error) {
	srv, err := control.NewServer("nvlink")
	if err != nil {
		return nil, err
	}
	s := &controlSystem{h: srv.Handler(), horizon: controlHorizon}
	if o.short {
		s.horizon = 2 * time.Second
	}
	for _, req := range controlJobs(o.variant) {
		body, ok := s.do("POST", "/v1/jobs", req)
		if !ok {
			return nil, fmt.Errorf("submit %s: %s", req.Name, body)
		}
		if req.Name == "resnet50-elastic" {
			var info control.JobInfo
			if err := json.Unmarshal(body, &info); err != nil {
				return nil, fmt.Errorf("submit %s: %w", req.Name, err)
			}
			s.elastic, s.vnodes = info.ID, 1
		}
	}
	return s, nil
}

// do serves one request and reports whether it succeeded (2xx).
func (s *controlSystem) do(method, path string, body any) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			s.failed = append(s.failed, fmt.Sprintf("%s %s: %v", method, path, err))
			return nil, false
		}
		rd = bytes.NewReader(data)
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	s.calls++
	if rec.Code/100 != 2 {
		s.failed = append(s.failed, fmt.Sprintf("%s %s: HTTP %d %s", method, path, rec.Code, rec.Body.String()))
		return rec.Body.Bytes(), false
	}
	return rec.Body.Bytes(), true
}

func (s *controlSystem) run(st *stepTimer) {
	advance := control.AdvanceRequest{ForMillis: controlAdvanceMS}
	for i := 1; s.now < s.horizon; i++ {
		st.span(func() { s.iteration(i, st, advance) })
	}
}

// iteration is the client's i-th advance and the calls that follow it.
func (s *controlSystem) iteration(i int, st *stepTimer, advance control.AdvanceRequest) {
	st.step(func() {
		body, ok := s.do("POST", "/v1/advance", advance)
		var resp control.AdvanceResponse
		if ok && json.Unmarshal(body, &resp) == nil {
			s.now = time.Duration(resp.NowMillis * float64(time.Millisecond))
		} else {
			s.now += controlAdvanceMS * time.Millisecond
		}
	})
	if i%controlScrapeEvery == 0 {
		t := stopwatch()
		body, _ := s.do("GET", "/v1/metrics", nil)
		s.scrapes = append(s.scrapes, t())
		s.metricsBytes = len(body)
	}
	if i%controlListEvery == 0 {
		t := stopwatch()
		s.do("GET", "/v1/jobs", nil)
		s.lists = append(s.lists, t())
	}
	if i%controlResizeEvery == 0 {
		s.vnodes = 3 - s.vnodes // 1 <-> 2
		s.do("POST", "/v1/jobs/"+strconv.Itoa(s.elastic)+"/resize", control.ResizeRequest{VNodes: s.vnodes})
	}
}

func (s *controlSystem) check() outcome {
	var out outcome
	status, _ := s.do("GET", "/v1/status", nil)
	jobsBody, _ := s.do("GET", "/v1/jobs", nil)
	metricsBody, _ := s.do("GET", "/v1/metrics", nil)
	d := newDigest()
	d.add("status", string(status))
	d.add("jobs", string(jobsBody))
	out.digest = d.sum()

	out.checks += s.calls - len(s.failed)
	for _, f := range s.failed {
		out.expect(false, "%s", f)
	}
	var st control.StatusInfo
	var jobs []control.JobInfo
	var m control.MetricsInfo
	out.expect(json.Unmarshal(status, &st) == nil, "decode /v1/status")
	out.expect(json.Unmarshal(jobsBody, &jobs) == nil, "decode /v1/jobs")
	out.expect(json.Unmarshal(metricsBody, &m) == nil, "decode /v1/metrics")
	var served, batches, offered, shed int
	for _, j := range jobs {
		out.expect(j.Served+j.Shed <= j.Offered,
			"job %s: served %d + shed %d > offered %d", j.Name, j.Served, j.Shed, j.Offered)
		out.expect(!j.Crashed && j.Error == "", "job %s crashed: %s", j.Name, j.Error)
		served += j.Served
		batches += j.Batches
		offered += j.Offered
		shed += j.Shed
	}
	out.expect(offered == st.OfferedRequests && shed == st.ShedRequests,
		"status offered/shed %d/%d != job sums %d/%d", st.OfferedRequests, st.ShedRequests, offered, shed)

	out.counts = map[string]float64{
		"device.kernels":        float64(m.ByKind["KernelSpan"]),
		"executor.launches":     float64(m.ByKind["Launch"]),
		"core.preempts":         float64(st.Preemptions),
		"core.resumes":          float64(m.ByKind["Resume"]),
		"core.migrations":       float64(st.Migrations),
		"workload.offered":      float64(st.OfferedRequests),
		"workload.shed_ratio":   ratio(st.ShedRequests, st.OfferedRequests),
		"workload.mean_batch":   ratio(served, batches),
		"obs.events":            float64(m.Events),
		"obs.dropped":           float64(m.DroppedEvents),
		"control.metrics_bytes": float64(s.metricsBytes),
	}
	if len(s.scrapes) > 0 {
		scrape, list := millis(s.scrapes), millis(s.lists)
		out.detail = append(out.detail,
			fmt.Sprintf("control.scrape_p50_ms %.3f  control.scrape_p90_ms %.3f  (n=%d scrapes, %d bytes)",
				quantile(scrape, 0.5), quantile(scrape, 0.9), len(scrape), s.metricsBytes),
			fmt.Sprintf("control.jobs_p50_ms %.3f  (n=%d lists)", quantile(list, 0.5), len(list)),
			fmt.Sprintf("preemptions %d  migrations %d  offered %d  shed %d", st.Preemptions, st.Migrations, st.OfferedRequests, st.ShedRequests))
	}
	return out
}
