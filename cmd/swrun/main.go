// Command swrun runs an ad-hoc collocation scenario described on the
// command line and reports per-job outcomes.
//
// Jobs are comma-separated specs of the form
//
//	kind:model:batch[:prio][@gpu]
//
// where kind is train, serve (closed loop), or infer (saturated), e.g.
//
//	swrun -machine v100 -sched switchflow \
//	      -jobs train:VGG16:32:1,serve:ResNet50:1:2 -for 30s
//
// The serving flags reshape every serve job: -serve-every switches it to
// an open-loop request stream (optionally Poisson via -poisson and
// -arrival-seed), -slo enables admission control, and -max-batch with
// -batch-wait enables dynamic micro-batching:
//
//	swrun -jobs serve:ResNet50:1:2 -serve-every 10ms -poisson \
//	      -slo 200ms -max-batch 8 -batch-wait 5ms -for 30s
//
// The elastic flags exercise virtual-node placement (SwitchFlow only):
// -vnodes splits every training job across the listed GPUs, -resize
// grows/shrinks a job's virtual-node count mid-run, and -drain vacates a
// GPU administratively so its jobs rebind or migrate:
//
//	swrun -machine 2gpu -jobs train:ResNet50:16:1 -vnodes 0 \
//	      -resize train-ResNet50=2@10s -drain 0@20s -for 60s
//
// The gang flag turns every training job into a synchronous
// data-parallel gang (SwitchFlow only): N replicas on consecutive GPUs
// meet at a topology-priced ring all-reduce every step and are
// preempted or resumed as one unit. The NVLink machine gives the
// all-reduce fast islands to run on:
//
//	swrun -machine nvlink -jobs train:ResNet50:32:1 -gang 2 -for 30s
//
// The traffic flags replace the serve jobs' own arrival clocks with one
// aggregate open-loop trace — a base rate shaped by a diurnal sinusoid
// and flash-crowd spikes, split across the serve jobs by Zipf share in
// listing order (the same generator the fleet experiment uses):
//
//	swrun -jobs serve:ResNet50:1:2,serve:VGG16:1:2 -traffic 200 \
//	      -diurnal 60s/0.35 -spike 6@20s/3s/8s/4s \
//	      -slo 200ms -max-batch 4 -batch-wait 2ms -for 60s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"switchflow"
	"switchflow/internal/control"
)

func main() {
	var (
		machineFlag  = flag.String("machine", "v100", "machine: v100, nvlink, 2gpu, tx2, or a GPU name")
		schedFlag    = flag.String("sched", "switchflow", "scheduler: switchflow, threaded, timeslice, mps")
		jobsFlag     = flag.String("jobs", "train:ResNet50:16:1", "comma-separated job specs")
		window       = flag.Duration("for", 30*time.Second, "virtual time to run")
		scenarioFlag = flag.String("scenario", "", "JSON scenario file (overrides the other flags)")
		faultSeed    = flag.Int64("fault-seed", 0, "inject a seeded random fault mix (0 = none)")
		loseGPU      = flag.String("lose-gpu", "", "inject a device loss, as gpu@time (e.g. 0@10s)")
		ckptEvery    = flag.Duration("checkpoint-every", 0, "SwitchFlow host-checkpoint interval (0 = default)")
		serveEvery   = flag.Duration("serve-every", 0, "make serve jobs open-loop with this arrival period (0 = closed loop)")
		poisson      = flag.Bool("poisson", false, "draw Poisson inter-arrival times with mean -serve-every")
		arrivalSeed  = flag.Int64("arrival-seed", 1, "seed for the -poisson arrival process")
		slo          = flag.Duration("slo", 0, "serving latency SLO; admission control sheds beyond it (0 = admit all)")
		maxBatch     = flag.Int("max-batch", 0, "fuse up to this many requests per compute launch (0 = no batching)")
		batchWait    = flag.Duration("batch-wait", 0, "max wait for a sub-target micro-batch to fill")
		vnodesFlag   = flag.String("vnodes", "", "split training jobs across these GPUs as virtual nodes, e.g. 0,1 (switchflow only)")
		gangFlag     = flag.Int("gang", 0, "make training jobs data-parallel gangs of this many replicas; with -vnodes those GPUs are the gang (switchflow only)")
		drainFlag    = flag.String("drain", "", "drain GPUs mid-run, as gpu@time[,gpu@time...] (e.g. 0@20s)")
		resizeFlag   = flag.String("resize", "", "resize elastic jobs mid-run, as job=vnodes@time[,...] (e.g. train-ResNet50=2@10s)")
		trafficRPS   = flag.Float64("traffic", 0, "drive serve jobs with an aggregate open-loop trace at this rps (0 = off)")
		clientsFlag  = flag.Int("clients", 1_000_000, "client population the -traffic rate aggregates")
		diurnalFlag  = flag.String("diurnal", "", "-traffic diurnal curve, as period/minFraction (e.g. 60s/0.35)")
		spikeFlag    = flag.String("spike", "", "-traffic flash crowds, as mag@start/ramp/hold/decay[,...] (e.g. 6@20s/3s/8s/4s)")
		trafficSeed  = flag.Int64("traffic-seed", 1, "seed for the -traffic arrival streams")
	)
	flag.Parse()
	serving := servingOpts{
		every: *serveEvery, poisson: *poisson, seed: *arrivalSeed,
		slo: *slo, maxBatch: *maxBatch, batchWait: *batchWait,
	}
	traf := trafficOpts{
		rps: *trafficRPS, clients: *clientsFlag, seed: *trafficSeed,
		diurnal: *diurnalFlag, spikes: *spikeFlag,
	}
	var err error
	if *scenarioFlag != "" {
		err = runScenario(*scenarioFlag)
	} else {
		err = run(*machineFlag, *schedFlag, *jobsFlag, *window, *faultSeed, *loseGPU, *ckptEvery, serving,
			*vnodesFlag, *gangFlag, *drainFlag, *resizeFlag, traf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swrun:", err)
		os.Exit(1)
	}
}

// servingOpts reshape every serve job from the command line.
type servingOpts struct {
	every     time.Duration
	poisson   bool
	seed      int64
	slo       time.Duration
	maxBatch  int
	batchWait time.Duration
}

// apply rewrites a serve job's arrival process and serving policy. Only
// request-driven jobs are touched; train and infer specs pass through.
func (o servingOpts) apply(spec *switchflow.JobSpec) {
	if spec.Train || spec.Saturated {
		return
	}
	if o.every > 0 {
		spec.ClosedLoop = false
		spec.ServeEvery = o.every
		spec.PoissonArrivals = o.poisson
		if o.poisson {
			spec.ArrivalSeed = o.seed
		}
		spec.MaxBatch = o.maxBatch
		spec.BatchWait = o.batchWait
	}
	spec.SLO = o.slo
}

// trafficOpts hold the -traffic flag family; rps == 0 means the trace
// generator is off and serve jobs keep their own arrival clocks.
type trafficOpts struct {
	rps     float64
	clients int
	seed    int64
	diurnal string
	spikes  string
}

func (o trafficOpts) enabled() bool { return o.rps > 0 }

// request parses the flag strings into the control-plane traffic block.
func (o trafficOpts) request() (control.TrafficRequest, error) {
	req := control.TrafficRequest{RPS: o.rps, Clients: o.clients, Seed: o.seed}
	if o.diurnal != "" {
		periodStr, minStr, ok := strings.Cut(o.diurnal, "/")
		if !ok {
			return req, fmt.Errorf("-diurnal %q: want period/minFraction, e.g. 60s/0.35", o.diurnal)
		}
		period, err := time.ParseDuration(periodStr)
		if err != nil {
			return req, fmt.Errorf("-diurnal %q: bad period: %v", o.diurnal, err)
		}
		min, err := strconv.ParseFloat(minStr, 64)
		if err != nil {
			return req, fmt.Errorf("-diurnal %q: bad min fraction: %v", o.diurnal, err)
		}
		req.DiurnalMillis = int(period / time.Millisecond)
		req.DiurnalMin = min
	}
	for _, one := range strings.Split(o.spikes, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		magStr, rest, ok := strings.Cut(one, "@")
		if !ok {
			return req, fmt.Errorf("-spike %q: want mag@start/ramp/hold/decay, e.g. 6@20s/3s/8s/4s", one)
		}
		mag, err := strconv.ParseFloat(magStr, 64)
		if err != nil {
			return req, fmt.Errorf("-spike %q: bad magnitude: %v", one, err)
		}
		parts := strings.Split(rest, "/")
		if len(parts) != 4 {
			return req, fmt.Errorf("-spike %q: want mag@start/ramp/hold/decay", one)
		}
		var ds [4]time.Duration
		for i, p := range parts {
			if ds[i], err = time.ParseDuration(p); err != nil {
				return req, fmt.Errorf("-spike %q: bad duration %q: %v", one, p, err)
			}
		}
		req.Spikes = append(req.Spikes, control.SpikeRequest{
			StartMillis: int(ds[0] / time.Millisecond),
			RampMillis:  int(ds[1] / time.Millisecond),
			HoldMillis:  int(ds[2] / time.Millisecond),
			DecayMillis: int(ds[3] / time.Millisecond),
			Magnitude:   mag,
		})
	}
	return req, nil
}

func run(machineName, schedName, jobsSpec string, window time.Duration,
	faultSeed int64, loseGPU string, ckptEvery time.Duration, serving servingOpts,
	vnodesFlag string, gang int, drainFlag, resizeFlag string, traf trafficOpts) error {
	if traf.enabled() && serving.every > 0 {
		return fmt.Errorf("-traffic and -serve-every are mutually exclusive")
	}
	spec, err := machineSpec(machineName)
	if err != nil {
		return err
	}
	sim := switchflow.NewSimulation(spec)

	policy, err := parsePolicy(schedName)
	if err != nil {
		return err
	}
	opts, err := faultOptions(sim, faultSeed, loseGPU, ckptEvery, window)
	if err != nil {
		return err
	}
	sched, err := sim.NewScheduler(policy, opts...)
	if err != nil {
		return err
	}
	vnodes, err := parseVNodes(vnodesFlag)
	if err != nil {
		return err
	}

	var jobs []*switchflow.Job
	var tenantNames []string
	var tenantJobs []*switchflow.Job
	byName := make(map[string]*switchflow.Job)
	for _, one := range strings.Split(jobsSpec, ",") {
		js, err := parseJob(strings.TrimSpace(one))
		if err != nil {
			return err
		}
		serving.apply(&js)
		isTenant := traf.enabled() && !js.Train && !js.Saturated
		if isTenant {
			// The trace owns the clock: the job idles between Offer calls
			// but keeps the batching/SLO policy from the serving flags.
			js.ClosedLoop = false
			js.ServeEvery = 0
			js.PoissonArrivals = false
			js.RequestDriven = true
			js.MaxBatch = serving.maxBatch
			js.BatchWait = serving.batchWait
		}
		if js.Train && len(vnodes) > 0 {
			js.Placement = switchflow.Placement{Device: vnodes[0], VNodes: vnodes}
			js.Gang = gang > 0
		} else if js.Train && gang > 0 {
			// A gang of N replicas on consecutive GPUs from the job's @gpu.
			js.Placement.Fallbacks, js.Placement.AllowCPU = nil, false
			js.Gang, js.Replicas = true, gang
		} else if js.Train || len(opts) > 0 {
			// Training jobs fall back to every other GPU on this machine, in
			// index order, then the CPU. Under fault injection serving jobs
			// get the same GPU fallbacks so SwitchFlow can migrate them off a
			// lost device.
			for i := 0; i < sim.GPUCount(); i++ {
				if i != js.Placement.Device {
					js.Placement.Fallbacks = append(js.Placement.Fallbacks, i)
				}
			}
		}
		job, err := sched.AddJob(js)
		if err != nil {
			return err
		}
		jobs = append(jobs, job)
		byName[job.Name()] = job
		if isTenant {
			tenantNames = append(tenantNames, job.Name())
			tenantJobs = append(tenantJobs, job)
		}
	}

	ops, err := parseElasticOps(drainFlag, resizeFlag, byName)
	if err != nil {
		return err
	}
	var offered, admitted int
	if traf.enabled() {
		if len(ops) > 0 {
			return fmt.Errorf("-traffic cannot be combined with -drain or -resize")
		}
		if len(tenantJobs) == 0 {
			return fmt.Errorf("-traffic needs at least one serve job")
		}
		req, err := traf.request()
		if err != nil {
			return err
		}
		profile, err := req.Profile(tenantNames)
		if err != nil {
			return err
		}
		if offered, admitted, err = control.DriveTraffic(sim, tenantJobs, profile, window); err != nil {
			return err
		}
	} else if len(ops) > 0 {
		sf, ok := sched.(*switchflow.SwitchFlowScheduler)
		if !ok {
			return fmt.Errorf("-drain and -resize need the switchflow scheduler, not %s", sched.Name())
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		for _, op := range ops {
			if op.at > window {
				return fmt.Errorf("%s at %v is past the -for window %v", op.what, op.at, window)
			}
			sim.RunUntil(op.at)
			if err := op.run(sf); err != nil {
				return fmt.Errorf("%s at %v: %w", op.what, op.at, err)
			}
		}
		sim.RunUntil(window)
	} else {
		sim.RunFor(window)
	}

	fmt.Printf("machine=%s scheduler=%s window=%v\n", spec.Name(), sched.Name(), window)
	if traf.enabled() {
		fmt.Printf("  traffic: rps=%g clients=%d offered=%d admitted=%d shed-at-admission=%d\n",
			traf.rps, traf.clients, offered, admitted, offered-admitted)
	}
	for _, job := range jobs {
		status := "ok"
		if job.Crashed() {
			status = "CRASHED: " + job.Err().Error()
		}
		line := fmt.Sprintf("  %-20s iters=%-6d throughput=%8.1f img/s",
			job.Name(), job.Iterations(), job.Throughput(window))
		if job.Elastic() {
			line += fmt.Sprintf("  vnodes=%d binding=%s restarts=%d",
				job.VNodes(), job.Binding(), job.Restarts())
			if job.Gang() {
				line += " gang"
			}
		}
		if job.Requests() > 0 {
			line += fmt.Sprintf("  p95=%v p99=%v",
				job.P95Latency().Round(time.Millisecond), job.P99Latency().Round(time.Millisecond))
		}
		if st := job.ServingStats(); st.Offered > 0 {
			line += fmt.Sprintf("  served=%d/%d shed=%d", st.Served, st.Offered, st.Shed)
			if st.Batches > 0 && st.Served > st.Batches {
				line += fmt.Sprintf(" mean-batch=%.1f", job.MeanBatch())
			}
			if serving.slo > 0 {
				line += fmt.Sprintf(" slo-attained=%.1f%%", job.SLOAttainment())
			}
		}
		fmt.Printf("%s  [%s]\n", line, status)
	}
	if sf, ok := sched.(*switchflow.SwitchFlowScheduler); ok {
		fmt.Printf("  preemptions=%d migrations=%d grant-p95=%v\n",
			sf.Preemptions(), sf.Migrations(), sf.PreemptionP95().Round(time.Microsecond))
	}
	if st := sched.FaultStats(); st.Injected > 0 {
		fmt.Printf("  faults=%d (lost-gpu=%d transient=%d stall=%d) jobs-lost=%d migrations=%d restarts=%d checkpoints=%d\n",
			st.Injected, st.DeviceLost, st.Transients, st.InputStalls,
			st.JobsLost, st.Migrations, st.Restarts, st.Checkpoints)
	}
	return nil
}

func parsePolicy(name string) (switchflow.Policy, error) {
	switch name {
	case "switchflow":
		return switchflow.PolicySwitchFlow, nil
	case "threaded":
		return switchflow.PolicyThreadedTF, nil
	case "timeslice":
		return switchflow.PolicyTimeSlice, nil
	case "mps":
		return switchflow.PolicyMPS, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q", name)
	}
}

// faultOptions builds the NewScheduler options for the fault flags; nil
// when no fault injection was requested.
func faultOptions(sim *switchflow.Simulation, seed int64, loseGPU string,
	ckptEvery, window time.Duration) ([]switchflow.Option, error) {
	var plan *switchflow.FaultPlan
	if seed != 0 {
		plan = switchflow.RandomFaultPlan(seed, window, sim.GPUCount())
	}
	if loseGPU != "" {
		gpuStr, atStr, ok := strings.Cut(loseGPU, "@")
		if !ok {
			return nil, fmt.Errorf("-lose-gpu %q: want gpu@time, e.g. 0@10s", loseGPU)
		}
		gpu, err := strconv.Atoi(gpuStr)
		if err != nil {
			return nil, fmt.Errorf("-lose-gpu %q: bad gpu index", loseGPU)
		}
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("-lose-gpu %q: bad time: %v", loseGPU, err)
		}
		if plan == nil {
			plan = switchflow.NewFaultPlan()
		}
		plan.LoseGPU(at, gpu)
	}
	if plan == nil {
		return nil, nil
	}
	opts := []switchflow.Option{switchflow.WithFaultPlan(plan)}
	if ckptEvery > 0 {
		opts = append(opts, switchflow.WithCheckpointEvery(ckptEvery))
	}
	return opts, nil
}

// parseVNodes parses the -vnodes GPU list ("0,1" → [0, 1]).
func parseVNodes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var gpus []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-vnodes %q: bad gpu index %q", s, part)
		}
		gpus = append(gpus, n)
	}
	return gpus, nil
}

// elasticOp is a scheduled mid-run mutation: the engine runs to at, the
// op fires, and the run continues.
type elasticOp struct {
	at   time.Duration
	what string
	run  func(*switchflow.SwitchFlowScheduler) error
}

// parseElasticOps parses -drain ("gpu@time,...") and -resize
// ("job=vnodes@time,...") into scheduled operations.
func parseElasticOps(drainFlag, resizeFlag string, byName map[string]*switchflow.Job) ([]elasticOp, error) {
	var ops []elasticOp
	if drainFlag != "" {
		for _, one := range strings.Split(drainFlag, ",") {
			gpuStr, atStr, ok := strings.Cut(strings.TrimSpace(one), "@")
			if !ok {
				return nil, fmt.Errorf("-drain %q: want gpu@time, e.g. 0@20s", one)
			}
			gpu, err := strconv.Atoi(gpuStr)
			if err != nil {
				return nil, fmt.Errorf("-drain %q: bad gpu index", one)
			}
			at, err := time.ParseDuration(atStr)
			if err != nil {
				return nil, fmt.Errorf("-drain %q: bad time: %v", one, err)
			}
			ops = append(ops, elasticOp{
				at:   at,
				what: fmt.Sprintf("drain gpu:%d", gpu),
				run:  func(sf *switchflow.SwitchFlowScheduler) error { return sf.Drain(gpu) },
			})
		}
	}
	if resizeFlag != "" {
		for _, one := range strings.Split(resizeFlag, ",") {
			name, rest, ok := strings.Cut(strings.TrimSpace(one), "=")
			if !ok {
				return nil, fmt.Errorf("-resize %q: want job=vnodes@time, e.g. train-ResNet50=2@10s", one)
			}
			nStr, atStr, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("-resize %q: want job=vnodes@time", one)
			}
			n, err := strconv.Atoi(nStr)
			if err != nil {
				return nil, fmt.Errorf("-resize %q: bad vnode count", one)
			}
			at, err := time.ParseDuration(atStr)
			if err != nil {
				return nil, fmt.Errorf("-resize %q: bad time: %v", one, err)
			}
			job, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("-resize %q: no job named %q", one, name)
			}
			ops = append(ops, elasticOp{
				at:   at,
				what: fmt.Sprintf("resize %s to %d", name, n),
				run: func(sf *switchflow.SwitchFlowScheduler) error {
					if n > job.VNodes() {
						return sf.Grow(job, n)
					}
					if n < job.VNodes() {
						return sf.Shrink(job, n)
					}
					return nil
				},
			})
		}
	}
	return ops, nil
}

func machineSpec(name string) (switchflow.MachineSpec, error) {
	switch strings.ToLower(name) {
	case "v100":
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

// parseJob parses kind:model:batch[:prio][@gpu].
func parseJob(s string) (switchflow.JobSpec, error) {
	var spec switchflow.JobSpec
	gpu := 0
	if at := strings.LastIndex(s, "@"); at >= 0 {
		n, err := strconv.Atoi(s[at+1:])
		if err != nil {
			return spec, fmt.Errorf("job %q: bad gpu index", s)
		}
		gpu = n
		s = s[:at]
	}
	parts := strings.Split(s, ":")
	if len(parts) < 3 {
		return spec, fmt.Errorf("job %q: want kind:model:batch[:prio]", s)
	}
	batch, err := strconv.Atoi(parts[2])
	if err != nil {
		return spec, fmt.Errorf("job %q: bad batch", s)
	}
	prio := 0
	if len(parts) > 3 {
		if prio, err = strconv.Atoi(parts[3]); err != nil {
			return spec, fmt.Errorf("job %q: bad priority", s)
		}
	}
	spec = switchflow.JobSpec{
		Name:      fmt.Sprintf("%s-%s", parts[0], parts[1]),
		Model:     parts[1],
		Batch:     batch,
		Priority:  prio,
		Placement: switchflow.Placement{Device: gpu},
	}
	switch parts[0] {
	case "train":
		spec.Train = true
		spec.Placement.AllowCPU = true
	case "serve":
		spec.ClosedLoop = true
	case "infer":
		spec.Saturated = true
	default:
		return spec, fmt.Errorf("job %q: unknown kind %q", s, parts[0])
	}
	return spec, nil
}

// runScenario executes a declarative JSON scenario (see docs/scenarios).
func runScenario(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := control.ParseScenario(f)
	if err != nil {
		return err
	}
	res, err := control.RunScenario(sc)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
