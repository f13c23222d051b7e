// Package control exposes a SwitchFlow simulation over HTTP/JSON — the
// model-submission service the paper sketches as future work ("this
// implementation can be improved to employ the gRPC interface for model
// submission, in a way similar to TF serving", §4). Clients submit jobs,
// advance virtual time, and read per-job and per-device statistics.
//
// Endpoints:
//
//	GET  /v1/status          simulation time, GPUs, scheduler counters
//	GET  /v1/models          the model zoo
//	GET  /v1/jobs            all jobs with stats
//	POST /v1/jobs            submit a job (JobRequest) -> JobInfo
//	GET  /v1/jobs/{id}       one job
//	DELETE /v1/jobs/{id}     stop a job
//	POST /v1/jobs/{id}/resize  grow/shrink an elastic job (ResizeRequest)
//	POST /v1/jobs/{id}/rebind  move one virtual node (RebindRequest)
//	POST /v1/groups          submit a shared-input group ([]JobRequest)
//	POST /v1/gpus/{gpu}/drain    vacate a GPU (elastic jobs rebind, others migrate)
//	POST /v1/gpus/{gpu}/undrain  make a drained GPU placeable again
//	POST /v1/advance         advance virtual time (AdvanceRequest)
//	GET  /v1/trace           Chrome trace-event JSON of the recorded window
//	GET  /v1/metrics         observability-spine event counts + aggregates
package control

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchflow"
	"switchflow/internal/obs"
)

// JobRequest is the submission payload.
type JobRequest struct {
	Name         string `json:"name"`
	Model        string `json:"model"`
	Batch        int    `json:"batch"`
	Train        bool   `json:"train"`
	Priority     int    `json:"priority"`
	GPU          int    `json:"gpu"`
	FallbackGPUs []int  `json:"fallbackGpus,omitempty"`
	FallbackCPU  bool   `json:"fallbackCpu,omitempty"`
	ServeEveryMS int    `json:"serveEveryMillis,omitempty"`
	ClosedLoop   bool   `json:"closedLoop,omitempty"`
	Saturated    bool   `json:"saturated,omitempty"`
	// PoissonArrivals draws exponential inter-arrival times with mean
	// serveEveryMillis, seeded by arrivalSeed.
	PoissonArrivals bool  `json:"poissonArrivals,omitempty"`
	ArrivalSeed     int64 `json:"arrivalSeed,omitempty"`
	// SLOMillis sets the serving latency objective; admission control
	// sheds requests whose projected queueing delay exceeds it.
	SLOMillis float64 `json:"sloMillis,omitempty"`
	// MaxBatch enables dynamic micro-batching up to this many requests
	// per compute launch; BatchWaitMillis bounds how long a sub-target
	// batch may wait for more requests.
	MaxBatch        int     `json:"maxBatch,omitempty"`
	BatchWaitMillis float64 `json:"batchWaitMillis,omitempty"`
	// VNodes requests elastic virtual-node placement: the batch splits
	// across these GPUs and the binding can change at runtime via the
	// resize/rebind/drain endpoints. When set, the gpu/fallback fields
	// above are ignored in favour of the placement (vnodes[0] is the
	// primary, fallbackGpus/fallbackCpu become the placement fallbacks).
	VNodes []int `json:"vnodes,omitempty"`
	// Gang makes an elastic training job a synchronous data-parallel gang:
	// one replica per virtual node, meeting at a topology-priced ring
	// all-reduce step barrier; the scheduler suspends and resumes the gang
	// as one unit. Width comes from replicas (consecutive GPUs starting at
	// gpu) or an explicit vnodes list.
	Gang bool `json:"gang,omitempty"`
	// Replicas is the gang width when vnodes is not set.
	Replicas int `json:"replicas,omitempty"`
}

// JobInfo is the per-job status payload.
type JobInfo struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Model      string  `json:"model"`
	Device     string  `json:"device"`
	Iterations int     `json:"iterations"`
	Requests   int     `json:"requests"`
	P95Millis  float64 `json:"p95Millis"`
	P99Millis  float64 `json:"p99Millis"`
	// Serving request accounting: offered arrivals, admission-control
	// sheds, served completions, SLO-met completions, micro-batches
	// formed, and the derived attainment and mean batch size.
	Offered          int     `json:"offered,omitempty"`
	Shed             int     `json:"shed,omitempty"`
	Served           int     `json:"served,omitempty"`
	SLOMet           int     `json:"sloMet,omitempty"`
	Batches          int     `json:"batches,omitempty"`
	SLOAttainmentPct float64 `json:"sloAttainmentPct,omitempty"`
	MeanBatch        float64 `json:"meanBatch,omitempty"`
	// Elastic placement: virtual-node count and current binding (empty
	// for legacy single-device jobs), plus the restart counter that the
	// elastic path keeps at zero.
	VNodes   int    `json:"vnodes,omitempty"`
	Binding  string `json:"binding,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	// Gang reports a synchronous data-parallel gang job (replicas meet at
	// a ring all-reduce barrier and preempt/resume as one unit).
	Gang    bool   `json:"gang,omitempty"`
	Crashed bool   `json:"crashed"`
	Error   string `json:"error,omitempty"`
}

// StatusInfo is the simulation-wide status payload.
type StatusInfo struct {
	Machine      string    `json:"machine"`
	NowMillis    float64   `json:"nowMillis"`
	GPUs         []GPUInfo `json:"gpus"`
	Jobs         int       `json:"jobs"`
	Preemptions  int       `json:"preemptions"`
	Migrations   int       `json:"migrations"`
	GrantP95Usec float64   `json:"grantP95Micros"`
	// Aggregate serving counters across all jobs.
	OfferedRequests  int     `json:"offeredRequests"`
	ShedRequests     int     `json:"shedRequests"`
	SLOAttainmentPct float64 `json:"sloAttainmentPct"`
}

// GPUInfo is per-device status.
type GPUInfo struct {
	Index      int     `json:"index"`
	BusyMillis float64 `json:"busyMillis"`
	MemUsed    int64   `json:"memUsedBytes"`
}

// ResizeRequest changes an elastic job's virtual-node count; the split
// is re-priced across the job's current devices (growing adds GPUs).
type ResizeRequest struct {
	VNodes int `json:"vnodes"`
}

// RebindRequest moves one virtual node to a different GPU at the next
// epoch-safe point.
type RebindRequest struct {
	VNode int `json:"vnode"`
	GPU   int `json:"gpu"`
}

// AdvanceRequest advances virtual time.
type AdvanceRequest struct {
	ForMillis int `json:"forMillis"`
}

// AdvanceResponse reports the new clock.
type AdvanceResponse struct {
	NowMillis float64 `json:"nowMillis"`
}

// Server serves one simulation. The simulation is single-threaded; every
// handler holds the mutex while touching it.
type Server struct {
	mu      sync.Mutex
	machine string
	sim     *switchflow.Simulation
	sched   *switchflow.SwitchFlowScheduler
	jobs    map[int]*jobEntry
	// order holds job ids in creation (= ascending) order, so listing is
	// O(jobs) instead of scanning the whole 1..nextID id space.
	order  []int
	nextID int
	// recorder captures the observability spine for /v1/trace and
	// /v1/metrics. It is bounded (a ring of the most recent events) so a
	// long-running server cannot grow without bound.
	recorder *obs.Recorder
}

// recorderCap bounds the trace window the server retains: enough for tens
// of seconds of simulated kernel activity, small enough to stay O(100MB)
// in the worst case.
const recorderCap = 1 << 18

type jobEntry struct {
	id    int
	model string
	job   *switchflow.Job
}

// NewServer creates a control server over a fresh simulation of the named
// machine ("v100", "2gpu", "tx2").
func NewServer(machine string) (*Server, error) {
	spec, err := machineSpec(machine)
	if err != nil {
		return nil, err
	}
	sim := switchflow.NewSimulation(spec)
	rec := obs.NewRecorder(recorderCap)
	// Everything except OpSched: per-operator dispatch is orders of
	// magnitude more voluminous than the rest of the spine combined and
	// would evict the decision events /v1/trace exists to show.
	sim.EventBus().Subscribe(rec,
		obs.KindKernelSpan, obs.KindLaunch, obs.KindPreempt, obs.KindResume,
		obs.KindMigrate, obs.KindBatchFuse, obs.KindAdmit, obs.KindShed,
		obs.KindServe, obs.KindFaultInject, obs.KindJobLost,
		obs.KindCheckpoint, obs.KindRestore, obs.KindPlace,
		obs.KindBind, obs.KindRebind, obs.KindResize)
	sched, err := sim.NewSwitchFlowScheduler()
	if err != nil {
		return nil, err
	}
	return &Server{
		machine:  spec.Name(),
		sim:      sim,
		sched:    sched,
		jobs:     make(map[int]*jobEntry),
		recorder: rec,
	}, nil
}

func machineSpec(name string) (switchflow.MachineSpec, error) {
	switch strings.ToLower(name) {
	case "v100", "":
		return switchflow.V100Server(), nil
	case "nvlink":
		return switchflow.NVLinkV100Server(), nil
	case "2gpu":
		return switchflow.TwoGPUServer(), nil
	case "tx2":
		return switchflow.JetsonTX2(), nil
	default:
		return switchflow.SingleGPU(name)
	}
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleStopJob)
	mux.HandleFunc("POST /v1/jobs/{id}/resize", s.handleResizeJob)
	mux.HandleFunc("POST /v1/jobs/{id}/rebind", s.handleRebindJob)
	mux.HandleFunc("POST /v1/groups", s.handleSubmitGroup)
	mux.HandleFunc("POST /v1/gpus/{gpu}/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/gpus/{gpu}/undrain", s.handleUndrain)
	mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// The handlers below all follow the same shape: a *Locked method takes
// s.mu, builds the response payload, and returns it; the handler writes
// the payload only after the lock is released. Writing to the
// ResponseWriter under s.mu would let one slow client stall the whole
// control plane (the write can block on the peer's TCP window), which
// the locksafe analyzer flags.

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statusLocked())
}

func (s *Server) statusLocked() StatusInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := StatusInfo{
		Machine:      s.machine,
		NowMillis:    s.sim.Now().Seconds() * 1e3,
		Jobs:         len(s.jobs),
		Preemptions:  s.sched.Preemptions(),
		Migrations:   s.sched.Migrations(),
		GrantP95Usec: float64(s.sched.PreemptionP95().Microseconds()),
	}
	var served, sloMet int
	for _, id := range s.order {
		st := s.jobs[id].job.ServingStats()
		status.OfferedRequests += st.Offered
		status.ShedRequests += st.Shed
		served += st.Served
		sloMet += st.SLOMet
	}
	if served > 0 {
		status.SLOAttainmentPct = 100 * float64(sloMet) / float64(served)
	}
	for i := 0; i < s.sim.GPUCount(); i++ {
		status.GPUs = append(status.GPUs, GPUInfo{
			Index:      i,
			BusyMillis: s.sim.GPUBusy(i).Seconds() * 1e3,
			MemUsed:    s.sim.GPUMemoryUsed(i),
		})
	}
	return status
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, switchflow.Models())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listJobsLocked())
}

func (s *Server) listJobsLocked() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]JobInfo, 0, len(s.jobs))
	for _, id := range s.order {
		infos = append(infos, s.info(s.jobs[id]))
	}
	return infos
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	info, err := s.submitJobLocked(req)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) submitJobLocked(req JobRequest) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, err := s.sched.AddJob(toSpec(req))
	if err != nil {
		return JobInfo{}, err
	}
	return s.info(s.track(req.Model, job)), nil
}

func (s *Server) handleSubmitGroup(w http.ResponseWriter, r *http.Request) {
	var reqs []JobRequest
	if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	infos, err := s.submitGroupLocked(reqs)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, infos)
}

func (s *Server) submitGroupLocked(reqs []JobRequest) ([]JobInfo, error) {
	specs := make([]switchflow.JobSpec, len(reqs))
	for i, req := range reqs {
		specs[i] = toSpec(req)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	group, err := s.sched.AddSharedGroup(specs)
	if err != nil {
		return nil, err
	}
	infos := make([]JobInfo, 0, len(reqs))
	for i, job := range group.Jobs() {
		infos = append(infos, s.info(s.track(reqs[i].Model, job)))
	}
	return infos, nil
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobInfoLocked(r.PathValue("id"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStopJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobInfoLocked(r.PathValue("id"), true)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// jobInfoLocked resolves a job by its path id and returns its status,
// stopping it first when stop is set.
func (s *Server) jobInfoLocked(idText string, stop bool) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.lookup(idText)
	if err != nil {
		return JobInfo{}, err
	}
	if stop {
		s.sched.StopJob(entry.job)
	}
	return s.info(entry), nil
}

func (s *Server) handleResizeJob(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	info, err := s.resizeJobLocked(r.PathValue("id"), req)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) resizeJobLocked(idText string, req ResizeRequest) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.lookup(idText)
	if err != nil {
		return JobInfo{}, err
	}
	switch n := req.VNodes; {
	case n > entry.job.VNodes():
		err = s.sched.Grow(entry.job, n)
	case n < entry.job.VNodes():
		err = s.sched.Shrink(entry.job, n)
	}
	if err != nil {
		return JobInfo{}, err
	}
	return s.info(entry), nil
}

func (s *Server) handleRebindJob(w http.ResponseWriter, r *http.Request) {
	var req RebindRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	info, err := s.rebindJobLocked(r.PathValue("id"), req)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) rebindJobLocked(idText string, req RebindRequest) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.lookup(idText)
	if err != nil {
		return JobInfo{}, err
	}
	if err := s.sched.Rebind(entry.job, req.VNode, req.GPU); err != nil {
		return JobInfo{}, err
	}
	return s.info(entry), nil
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	status, err := s.drainLocked(r.PathValue("gpu"), true)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleUndrain(w http.ResponseWriter, r *http.Request) {
	status, err := s.drainLocked(r.PathValue("gpu"), false)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) drainLocked(gpuText string, drain bool) (StatusInfo, error) {
	gpu, err := strconv.Atoi(gpuText)
	if err != nil {
		return StatusInfo{}, fmt.Errorf("bad gpu index %q", gpuText)
	}
	s.mu.Lock()
	if drain {
		err = s.sched.Drain(gpu)
	} else {
		err = s.sched.Undrain(gpu)
	}
	s.mu.Unlock()
	if err != nil {
		return StatusInfo{}, err
	}
	return s.statusLocked(), nil
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if req.ForMillis <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("forMillis must be positive, got %d", req.ForMillis))
		return
	}
	writeJSON(w, http.StatusOK, s.advanceLocked(req))
}

func (s *Server) advanceLocked(req AdvanceRequest) AdvanceResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sim.RunFor(time.Duration(req.ForMillis) * time.Millisecond)
	return AdvanceResponse{NowMillis: s.sim.Now().Seconds() * 1e3}
}

// MetricsInfo is the /v1/metrics payload: spine-wide event accounting
// plus the scheduler's decision and fault aggregates.
type MetricsInfo struct {
	// Events is how many spine events the trace recorder currently holds;
	// DroppedEvents counts older events evicted by the bounded window.
	Events        int    `json:"events"`
	DroppedEvents uint64 `json:"droppedEvents"`
	// ByKind breaks the retained events down by event kind.
	ByKind map[string]int `json:"byKind"`
	// Scheduler decision counters and fault aggregates.
	Preemptions int                   `json:"preemptions"`
	Migrations  int                   `json:"migrations"`
	Faults      switchflow.FaultStats `json:"faults"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := s.traceEventsLocked()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChrome(w, events)
}

func (s *Server) traceEventsLocked() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorder.Events()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsLocked())
}

func (s *Server) metricsLocked() MetricsInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	events := s.recorder.Events()
	byKind := make(map[string]int)
	for _, e := range events {
		byKind[e.Kind.String()]++
	}
	return MetricsInfo{
		Events:        len(events),
		DroppedEvents: s.recorder.Dropped(),
		ByKind:        byKind,
		Preemptions:   s.sched.Preemptions(),
		Migrations:    s.sched.Migrations(),
		Faults:        s.sched.FaultStats(),
	}
}

func (s *Server) track(model string, job *switchflow.Job) *jobEntry {
	s.nextID++
	entry := &jobEntry{id: s.nextID, model: model, job: job}
	s.jobs[entry.id] = entry
	s.order = append(s.order, entry.id)
	return entry
}

func (s *Server) lookup(idText string) (*jobEntry, error) {
	id, err := strconv.Atoi(idText)
	if err != nil {
		return nil, fmt.Errorf("bad job id %q", idText)
	}
	entry, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("job %d not found", id)
	}
	return entry, nil
}

func (s *Server) info(entry *jobEntry) JobInfo {
	info := jobInfo(entry.id, entry.model, entry.job)
	info.Device = s.sched.JobDeviceName(entry.job)
	return info
}

// jobInfo builds the wire payload for one job; the caller fills Device
// when a scheduler can name it.
func jobInfo(id int, model string, job *switchflow.Job) JobInfo {
	serving := job.ServingStats()
	info := JobInfo{
		ID:               id,
		Name:             job.Name(),
		Model:            model,
		Iterations:       job.Iterations(),
		Requests:         job.Requests(),
		P95Millis:        job.P95Latency().Seconds() * 1e3,
		P99Millis:        job.P99Latency().Seconds() * 1e3,
		Offered:          serving.Offered,
		Shed:             serving.Shed,
		Served:           serving.Served,
		SLOMet:           serving.SLOMet,
		Batches:          serving.Batches,
		SLOAttainmentPct: job.SLOAttainment(),
		MeanBatch:        job.MeanBatch(),
		Crashed:          job.Crashed(),
	}
	if job.Elastic() {
		info.VNodes = job.VNodes()
		info.Binding = job.Binding()
		info.Restarts = job.Restarts()
		info.Gang = job.Gang()
	}
	if err := job.Err(); err != nil {
		info.Error = err.Error()
	}
	return info
}

func toSpec(req JobRequest) switchflow.JobSpec {
	spec := switchflow.JobSpec{
		Name:            req.Name,
		Model:           req.Model,
		Batch:           req.Batch,
		Train:           req.Train,
		Priority:        req.Priority,
		ServeEvery:      time.Duration(req.ServeEveryMS) * time.Millisecond,
		ClosedLoop:      req.ClosedLoop,
		Saturated:       req.Saturated,
		PoissonArrivals: req.PoissonArrivals,
		ArrivalSeed:     req.ArrivalSeed,
		SLO:             time.Duration(req.SLOMillis * float64(time.Millisecond)),
		MaxBatch:        req.MaxBatch,
		BatchWait:       time.Duration(req.BatchWaitMillis * float64(time.Millisecond)),
		Gang:            req.Gang,
		Replicas:        req.Replicas,
	}
	spec.Placement = switchflow.Placement{
		Device:    req.GPU,
		Fallbacks: req.FallbackGPUs,
		AllowCPU:  req.FallbackCPU,
		VNodes:    req.VNodes,
	}
	if len(req.VNodes) > 0 {
		spec.Placement.Device = req.VNodes[0]
	}
	return spec
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
