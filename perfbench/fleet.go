package main

import (
	"fmt"
	"time"

	"switchflow/internal/cluster"
	"switchflow/internal/device"
	"switchflow/internal/experiments"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// fleet is the scale workload: the autoscaled least-loaded arm of
// swbench -exp fleet, built from the same public pieces. 8 nodes x 2 V100
// serve 12 Zipf tenants (one million clients aggregated to 360 req/s at
// the diurnal peak, a 6x flash crowd at ~0.28 of the window) while two
// elastic trainers flex between 1 and 2 vnodes. The load is open loop in
// virtual time; the client's only calls are the advances.
const (
	fleetNodes   = 8
	fleetClients = 1_000_000
	fleetWindow  = 75 * time.Second
	// fleetStep is the virtual time one client advance covers: a whole
	// number of cluster epochs, so stepping is identical to one RunUntil.
	fleetStep = 100 * time.Millisecond
)

type fleetSystem struct {
	c        *cluster.Cluster
	fe       *cluster.Frontend
	scaler   *cluster.Autoscaler
	trainers []*workload.Job
	profile  traffic.Profile
	window   time.Duration

	// Traced runs only: spine events of countedKinds seen on the node
	// buses, and the host time between consecutive epoch barriers.
	kinds     [obs.NumKinds + 1]int
	epochs    []time.Duration
	lastEpoch func() time.Duration
}

func setupFleet(o runOptions) (system, error) {
	window := fleetWindow
	if o.short {
		window = 5 * time.Second
	}
	c := cluster.New(cluster.Collocate{}, fleetNodes, device.ClassV100, device.ClassV100)
	profile := experiments.FleetProfile(window, fleetClients)
	profile.Seed = fleetSeedBase + int64(o.variant)
	gen, err := traffic.NewGenerator(profile)
	if err != nil {
		return nil, fmt.Errorf("fleet traffic: %w", err)
	}
	fe, err := cluster.NewFrontend(c, gen, cluster.RouteLeastLoaded, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet frontend: %w", err)
	}
	s := &fleetSystem{c: c, fe: fe, profile: profile, window: window}
	s.scaler = fe.EnableAutoscaler(cluster.AutoscaleConfig{IdleRPS: 40, MaxReplicas: 4})
	nodes := c.Nodes()
	for i, model := range []string{"ResNet50", "InceptionV3"} {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		n := nodes[len(nodes)-1-i]
		job, err := n.Manager().AddJob(workload.Config{
			Name: "train-" + model, Model: spec, Batch: 32,
			Kind: workload.KindTraining, Priority: 1,
			Device: device.GPUID(0),
			VNodes: []device.ID{device.GPUID(0), device.GPUID(1)},
		})
		if err != nil {
			return nil, fmt.Errorf("fleet trainer %s: %w", model, err)
		}
		s.scaler.RegisterElastic(n, job, 1, 2)
		s.trainers = append(s.trainers, job)
	}
	if o.traced {
		sink := obs.SinkFunc(func(e obs.Event) { s.kinds[e.Kind]++ })
		for _, n := range nodes {
			n.Machine().Bus().Subscribe(sink, countedKinds...)
		}
		c.AtBarrier(func(time.Duration) {
			if s.lastEpoch != nil {
				s.epochs = append(s.epochs, s.lastEpoch())
			}
			s.lastEpoch = stopwatch()
		})
	}
	fe.Start(1)
	return s, nil
}

// countedKinds are the spine events a traced fleet run counts. They are
// the scheduler's decisions, a few thousand per run. Kernel spans and
// launches are left out: subscribing makes every kernel build an event,
// which would inflate the device and executor costs the profile measures
// (kernels are counted from the GPUs' own counters instead).
var countedKinds = []obs.Kind{
	obs.KindPreempt, obs.KindResume, obs.KindMigrate,
	obs.KindGangPreempt, obs.KindAllReduce,
}

// fleetSeedBase offsets the traffic seed so variant 0 is not the
// profile's own seed 97, which swbench and the tests already pin.
const fleetSeedBase = 1000

func (s *fleetSystem) run(st *stepTimer) {
	for s.c.Now() < s.window {
		st.time(func() { s.c.RunFor(fleetStep) })
	}
}

func (s *fleetSystem) check() outcome {
	var out outcome
	d := newDigest()
	var routed, dropped, offered, shed, served, batches, scale int
	for _, svc := range s.fe.Services() {
		cnt := svc.Counters()
		d.add("tenant", svc.Tenant().ID, svc.Routed(), svc.Dropped(), cnt.Offered,
			cnt.Shed, cnt.Served, cnt.SLOMet, cnt.Batches, svc.ScaleOuts(), svc.ScaleIns())
		routed += svc.Routed()
		dropped += svc.Dropped()
		offered += cnt.Offered
		shed += cnt.Shed
		served += cnt.Served
		batches += cnt.Batches
		scale += svc.ScaleOuts() + svc.ScaleIns()
		out.expect(cnt.Served+cnt.Shed <= cnt.Offered,
			"tenant %s: served %d + shed %d > offered %d", svc.Tenant().ID, cnt.Served, cnt.Shed, cnt.Offered)
	}
	for _, job := range s.trainers {
		d.add("trainer", job.Cfg.Name, job.Iterations)
	}
	d.add("autoscaler", s.scaler.ScaleOuts(), s.scaler.ScaleIns(), s.scaler.Shrinks(), s.scaler.Grows())
	out.digest = d.sum()

	// Conservation: every request the traffic profile generates up to the
	// front-end's routing watermark (one epoch past the horizon) is either
	// routed to a replica or dropped. The generated count comes from an
	// independent generator replaying the same windows.
	gen, err := traffic.NewGenerator(s.profile)
	generated := 0
	if err == nil {
		epoch := s.c.Epoch()
		for t := time.Duration(0); t < s.window+epoch; t += epoch {
			generated += len(gen.Batch(t, t+epoch))
		}
	}
	out.expect(err == nil, "fleet traffic replay: %v", err)
	out.expect(generated == routed+dropped,
		"offered %d != routed %d + dropped %d", generated, routed, dropped)
	out.expect(s.fe.Routed() == routed && s.fe.Dropped() == dropped,
		"front-end routed/dropped %d/%d != tenant sums %d/%d", s.fe.Routed(), s.fe.Dropped(), routed, dropped)

	var events, max, kernels uint64
	for _, n := range s.c.Nodes() {
		f := n.Engine().Fired()
		events += f
		if f > max {
			max = f
		}
		for _, g := range n.Machine().GPUs {
			kernels += g.Launched()
		}
	}
	out.events = events
	out.counts = map[string]float64{
		"sim.events":               float64(events),
		"shard.imbalance_max_mean": float64(max) * float64(len(s.c.Nodes())) / float64(events),
		"device.kernels":           float64(kernels),
		"core.preempts":            float64(s.kinds[obs.KindPreempt]),
		"core.resumes":             float64(s.kinds[obs.KindResume]),
		"core.migrations":          float64(s.kinds[obs.KindMigrate]),
		"core.gang_preempts":       float64(s.kinds[obs.KindGangPreempt]),
		"core.allreduces":          float64(s.kinds[obs.KindAllReduce]),
		"workload.offered":         float64(offered),
		"workload.shed_ratio":      ratio(shed, offered),
		"workload.mean_batch":      ratio(served, batches),
		"cluster.routed":           float64(routed),
		"cluster.scale_events":     float64(scale + s.scaler.Shrinks() + s.scaler.Grows()),
	}
	total := 0
	for _, n := range s.kinds {
		total += n
	}
	out.counts["obs.events"] = float64(total)
	if len(s.epochs) > 0 {
		us := make([]float64, len(s.epochs))
		for i, e := range s.epochs {
			us[i] = float64(e) / 1e3
		}
		out.detail = append(out.detail,
			fmt.Sprintf("cluster.epoch_p50_us %.1f  cluster.epoch_p99_us %.1f  (n=%d epochs)",
				quantile(us, 0.5), quantile(us, 0.99), len(us)))
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
