package main

import (
	"fmt"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/harness"
	"ucmp/internal/metrics"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// wiring is a simulation the traced run builds from the layers' public
// constructors instead of harness.Run, so that route planning can be timed
// through a decorator. It covers the configurations the workloads use (the
// serial engine, no latency relaxation, no tables) and mirrors harness.Run's
// wiring order call for call; the model digest of every wired run is checked
// against the untraced harness.Run of the same placement, so the two cannot
// drift apart unnoticed.
type wiring struct {
	name       string
	fab        *topo.Fabric
	ps         *core.PathSet // UCMP routing only
	routing    harness.RoutingKind
	transport  transport.Kind
	congestion bool              // §10 congestion-aware steering
	failures   *failure.Timeline // nil: no faults
	flows      []*netsim.Flow
	horizon    sim.Time
}

// wiredRun is the outcome of one wired simulation.
type wiredRun struct {
	net    *netsim.Network
	col    *metrics.Collector
	events uint64
	// inFlight counts the data packets not yet delivered or dropped when
	// the run stopped: parked in a queue, or on a wire (inside a pending
	// delivery event). -1 when the pending events could not be listed.
	inFlight int64
}

// runWired builds and runs w with spans around each constructor. It reports
// the wiring time to harness.wire_s, the transport launch to
// transport.launch_s, and the engine run to the simulate phase.
func (c *iterCtx) runWired(w wiring) (*wiredRun, error) {
	end := c.tr.begin("wire " + w.name)
	defer end()
	var wire float64
	var router netsim.Router
	var u *routing.UCMP
	c.step("routing.New", &wire, func() {
		switch w.routing {
		case harness.UCMP:
			u = routing.NewUCMP(w.ps)
			router = u
		case harness.VLB:
			router = routing.NewVLB(w.fab)
		case harness.KSP1:
			router = routing.NewKSP(w.fab, 1)
		case harness.KSP5:
			router = routing.NewKSP(w.fab, 5)
		case harness.Opera1:
			router = routing.NewOpera(w.fab, 1)
		case harness.Opera5:
			router = routing.NewOpera(w.fab, 5)
		}
	})
	if router == nil {
		return nil, fmt.Errorf("wire %s: unsupported routing %q", w.name, w.routing)
	}
	tr := &timedRouter{Router: router, ns: &c.planNs}
	eng := sim.NewEngine()
	var net *netsim.Network
	c.step("netsim.New", &wire, func() {
		qs := transport.QueueSpec(w.transport)
		net = netsim.New(eng, w.fab, tr, qs, qs, netsim.DefaultRotor())
		if u != nil && w.congestion {
			net.EnableCongestionBoard()
			u.Backlog = net.CongestionBacklog
			u.CongestionThreshold = 32 // harness.Run's default threshold
		}
		if u != nil {
			net.Stamper = u.StampBucket
		}
	})
	if w.failures != nil {
		c.step("failure.Compile", &wire, func() {
			fsched := failure.NewTimeline().Merge(w.failures).Compile(w.fab)
			net.Faults = fsched
			if u != nil {
				u.Health = fsched
			}
		})
	}
	c.step("netsim.Start", &wire, func() { net.Start() })
	col := &metrics.Collector{}
	c.step("metrics.Hook", &wire, func() {
		col.Hook(net)
		col.CountLaunched(len(w.flows))
	})
	var launch float64
	c.step("transport.Launch", &launch, func() {
		stack := transport.NewStack(net, w.transport)
		for _, f := range w.flows {
			stack.Launch(f)
		}
	})
	c.layer("transport.launch_s", launch)
	c.layer("harness.wire_s", wire+launch)
	c.step("sim.Engine.Run", &c.res.SimS, func() { eng.Run(w.horizon) })
	c.layer("routing.plans", float64(tr.plans))
	c.layer("routing.plan_failed", float64(tr.failed))
	run := &wiredRun{net: net, col: col, events: eng.Processed(), inFlight: -1}
	// Listing the pending events re-queues them unchanged.
	if pending, err := eng.SnapshotEvents(); err == nil {
		run.inFlight = net.InFlightData()
		for _, ev := range pending {
			if p, ok := ev.Arg.(*netsim.Packet); ok && p.Type == netsim.Data {
				run.inFlight++
			}
		}
	} else {
		c.fail("%s: pending events: %v", w.name, err)
	}
	return run, nil
}
