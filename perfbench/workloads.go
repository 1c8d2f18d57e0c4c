package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/failure"
	"ucmp/internal/harness"
	"ucmp/internal/metrics"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
	"ucmp/internal/workload"
)

// traceSeed seeds the Poisson traces of fig6-websearch and resilience. It
// is ucmpbench's default seed, so the sizes and arrivals are those behind
// the repository's Fig 6 numbers; the run's seed draws where they land.
const traceSeed = 1

func init() {
	register(&workloadSpec{
		name:       "fig6-websearch",
		why:        "Fig 6a/6c: all seven schemes on the 16-ToR fabric at 40% websearch load; event core and packet path, no offline pipeline",
		placements: 6,
		plain:      func(c *iterCtx) { fig6(c, false) },
		traced:     func(c *iterCtx) { fig6(c, true) },
	})
	register(&workloadSpec{
		name:       "scale512",
		why:        "cold offline pipeline at N=512, d=8 (path-set DP, table compile, fabric file save and load), then a warm permutation run",
		placements: 3,
		plain:      func(c *iterCtx) { scale512(c, false) },
		traced:     func(c *iterCtx) { scale512(c, true) },
	})
	register(&workloadSpec{
		name:       "resilience",
		why:        "datamining with hotspots, congestion steering, a ToR+link failure and repair, checkpoints and a resumed run",
		placements: 12,
		plain:      func(c *iterCtx) { resilience(c, false) },
		traced:     func(c *iterCtx) { resilience(c, true) },
	})
}

// poisson generates cfg's open-loop trace from traceSeed, with the
// parameters harness.Run would use, and places it by the iteration's
// placement seed.
func (c *iterCtx) poisson(cfg harness.SimConfig, dist *workload.Dist) []*netsim.Flow {
	var flows []*netsim.Flow
	c.setupStep("workload.Generate", "workload.generate_s", func() { flows = c.placed(cfg, dist) })
	return flows
}

// placed is poisson without the timing.
func (c *iterCtx) placed(cfg harness.SimConfig, dist *workload.Dist) []*netsim.Flow {
	trace := workload.Generate(workload.PoissonConfig{
		Dist:        dist,
		NumHosts:    cfg.Topo.NumHosts(),
		LinkBps:     cfg.Topo.LinkBps,
		Load:        cfg.Load,
		Duration:    cfg.Duration,
		Seed:        traceSeed,
		HostsPerToR: cfg.Topo.HostsPerToR,
		MaxFlowSize: cfg.MaxFlowSize,
		Hotspot:     cfg.Hotspot,
	})
	return relabel(trace, cfg.Topo.HostsPerToR, c.perm(cfg.Topo.NumToRs))
}

// countRun adds one uninterrupted run's model counters to the layer metrics.
func (c *iterCtx) countRun(ctr netsim.Counters, events uint64, flows int) {
	c.layer("sim.events", float64(events))
	c.layer("workload.flows", float64(flows))
	c.layer("netsim.data_pkts", float64(ctr.DataPackets))
	c.layer("netsim.recirc_expired", float64(ctr.ExpiredInCalendar))
	c.layer("netsim.recirc_late", float64(ctr.LateArrivals))
	c.layer("netsim.recirc_calfull", float64(ctr.CalendarFull))
	c.layer("netsim.drops", float64(ctr.DroppedPackets))
	c.layer("netsim.trimmed", float64(ctr.TrimmedDelivered))
	c.layer("netsim.fault_drops", float64(ctr.FaultDrops))
	c.layer("routing.steered", float64(ctr.CongestionSteered))
	c.layer("routing.recovered", float64(ctr.RecoveredSameLength+ctr.RecoveredShorter+ctr.RecoveredLonger+ctr.RecoveredBackup))
	c.layer("routing.recovery_failed", float64(ctr.RecoveryFailed))
	c.layer("_delivered_pkts", float64(ctr.DataDelivered))
	c.layer("_bytes_sent", float64(ctr.DataBytesSent))
	c.layer("_bytes_delivered", float64(ctr.DataBytesDelivered))
}

// finishHarnessRun checks and digests a harness.Run result.
func (c *iterCtx) finishHarnessRun(name string, res *harness.Result) uint64 {
	if err := checkRun(res.Counters, res.Flows, res.Collector, -1); err != nil {
		c.fail("%s: %v", name, err)
	}
	d := digest(res.Counters, res.Flows)
	c.res.Digests = append(c.res.Digests, runDigest{Run: name, Digest: hex64(d)})
	return d
}

// finishWiredRun checks a wired run, including the full conservation
// ledger, digests it and adds its in-flight remainder to the layer metrics.
func (c *iterCtx) finishWiredRun(name string, w *wiredRun) uint64 {
	c.layer("netsim.inflight_end", float64(w.inFlight))
	flows := w.net.Flows()
	if err := checkRun(w.net.Counters, flows, w.col, w.inFlight); err != nil {
		c.fail("%s (wired): %v", name, err)
	}
	d := digest(w.net.Counters, flows)
	c.res.Digests = append(c.res.Digests, runDigest{Run: name, Digest: hex64(d)})
	return d
}

// fig6 runs the seven Fig 6 schemes one after another on one placement of
// the websearch trace. Setup is the benchmark's own fabric, path-set and
// flow construction for each scheme — the calls harness.Run makes before it
// simulates, which it repeats internally on the untraced path (16 ToRs: a
// few milliseconds against seconds of simulation). The traced iteration
// feeds those objects to a wired simulation instead.
func fig6(c *iterCtx, traced bool) {
	base := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	base.Seed = traceSeed
	type scheme struct {
		sc    harness.Scheme
		cfg   harness.SimConfig
		fab   *topo.Fabric
		ps    *core.PathSet
		flows []*netsim.Flow
		// Filled by the simulate phase, run after the timed section.
		col          *metrics.Collector
		count, check func()
	}
	var schemes []*scheme
	for _, sc := range harness.Fig6Schemes(false) {
		s := &scheme{sc: sc, cfg: base}
		s.cfg.Routing, s.cfg.Transport, s.cfg.Relax = sc.Routing, sc.Transport, sc.Relax
		s.cfg.ScheduleKind = harness.ScheduleFor(sc.Routing)
		if !c.op(sc.Name+" setup", func() error {
			var err error
			c.setupStep("topo.NewFabric", "topo.fabric_s", func() { s.fab, err = topo.NewFabric(s.cfg.Topo, s.cfg.ScheduleKind, s.cfg.Seed) })
			if err != nil {
				return err
			}
			if sc.Routing == harness.UCMP {
				c.setupStep("core.BuildPathSetWith", "core.pathset_s", func() { s.ps = core.BuildPathSetWith(s.fab, s.cfg.Alpha, s.cfg.MaxParallel) })
			}
			s.flows = c.poisson(s.cfg, workload.WebSearch())
			s.cfg.Flows = s.flows
			return nil
		}) {
			continue
		}
		schemes = append(schemes, s)
	}
	for _, s := range schemes {
		name := s.sc.Name
		var ctr netsim.Counters
		var events uint64
		if traced {
			end := c.tr.begin("scheme " + name)
			var w *wiredRun
			c.op(name, func() (err error) {
				w, err = c.runWired(wiring{name: name, fab: s.fab, ps: s.ps, routing: s.sc.Routing,
					transport: s.sc.Transport, flows: s.flows, horizon: 4 * s.cfg.Duration})
				return err
			})
			end()
			if w == nil {
				continue
			}
			ctr, events = w.net.Counters, w.events
			s.check = func() { c.finishWiredRun(name, w) }
			s.col = w.col
		} else {
			res, secs := c.runHarness(name, s.cfg)
			if res == nil {
				continue
			}
			c.res.SimS += secs
			ctr, events = res.Counters, res.Events
			s.check = func() { c.finishHarnessRun(name, res) }
			s.col = res.Collector
		}
		c.res.Delivered += ctr.DataDelivered
		s.count = func() { c.countRun(ctr, events, len(s.flows)) }
	}
	c.endTimed()
	for _, s := range schemes {
		if s.check == nil {
			continue
		}
		s.count()
		s.check()
		if s.sc.Routing == harness.UCMP {
			c.recordUCMP(s.col, len(s.flows))
			if traced {
				rows, unique := s.ps.CanonStats()
				c.res.Layer["core.canon_rows"], c.res.Layer["core.canon_unique"] = float64(rows), float64(unique)
			}
		}
	}
}

// scaleTopo is the scale512 fabric: the scaled link parameters at 512 ToRs
// with 8 uplinks, a rotation-symmetric round-robin schedule.
func scaleTopo() topo.Config {
	tc := topo.Scaled()
	tc.NumToRs, tc.Uplinks = 512, 8
	return tc
}

// scale512 builds the offline pipeline cold into the iteration's private
// fabric-cache directory, loads it back, and runs a permutation (every ToR
// sends one 64 KiB flow to the next ToR of the placement) through
// harness.Run served from that file. The worker process is fresh, so
// harness.Run's process-wide warm map starts empty and the run loads the
// file the pipeline just wrote.
func scale512(c *iterCtx, traced bool) {
	tc := scaleTopo()
	params := fabriccache.Params{Alpha: 0.5}
	var (
		fab   *topo.Fabric
		ps    *core.PathSet
		table *routing.CompiledTable
		path  string
		warm  *fabriccache.Fabric
	)
	ok := c.op("topo.NewFabric", func() (err error) {
		c.setupStep("topo.NewFabric", "topo.fabric_s", func() { fab, err = topo.NewFabric(tc, "round-robin", c.pseed()) })
		return err
	}) && c.op("core.BuildPathSetWith", func() error {
		c.setupStep("core.BuildPathSetWith", "core.pathset_s", func() { ps = core.BuildPathSetWith(fab, params.Alpha, params.MaxParallel) })
		if !ps.Symmetric() {
			return fmt.Errorf("path set is not rotation-symmetric; the fabric file cannot hold it")
		}
		return nil
	}) && c.op("routing.CompileTable", func() error {
		c.setupStep("routing.CompileTable", "routing.table_compile_s", func() { table = routing.CompileTable(ps, core.NewFlowAger(ps), 0) })
		return nil
	}) && c.op("fabriccache.Save", func() (err error) {
		path = fabriccache.FileName(c.dir, fab, params)
		c.setupStep("fabriccache.Save", "fabriccache.save_s", func() { err = fabriccache.Save(path, ps, table) })
		return err
	}) && c.op("fabriccache.Load", func() (err error) {
		c.setupStep("fabriccache.Load", "fabriccache.load_s", func() { warm, err = fabriccache.Load(path, fab, params, fabriccache.Options{}) })
		return err
	})
	if !ok {
		return
	}
	defer warm.Close()
	var flows []*netsim.Flow
	c.setupStep("workload.Permutation", "workload.generate_s", func() {
		var perm []*netsim.Flow
		for tor := 0; tor < tc.NumToRs; tor++ {
			src := tor * tc.HostsPerToR
			dst := ((tor + 1) % tc.NumToRs) * tc.HostsPerToR
			perm = append(perm, netsim.NewFlow(int64(tor+1), src, dst, 64<<10, 0))
		}
		flows = relabel(perm, tc.HostsPerToR, c.perm(tc.NumToRs))
	})
	const name = "ucmp+dctcp"
	horizon := 20 * sim.Millisecond
	var ctr netsim.Counters
	var events uint64
	if traced {
		var w *wiredRun
		if !c.op(name, func() (err error) {
			w, err = c.runWired(wiring{name: name, fab: fab, ps: warm.PS, routing: harness.UCMP,
				transport: transport.DCTCP, flows: flows, horizon: horizon})
			return err
		}) {
			return
		}
		c.res.Delivered += w.net.Counters.DataDelivered
		c.endTimed()
		ctr, events = w.net.Counters, w.events
		c.finishWiredRun(name, w)
		c.recordUCMP(w.col, len(flows))
		rows, unique := ps.CanonStats()
		c.res.Layer["core.canon_rows"], c.res.Layer["core.canon_unique"] = float64(rows), float64(unique)
		c.res.Layer["_table_rows"] = float64(table.NumRows())
		if st, err := os.Stat(path); err == nil {
			c.res.Layer["fabriccache.file_mb"] = float64(st.Size()) / (1 << 20)
		}
	} else {
		res, secs := c.runHarness(name, harness.SimConfig{
			Topo: tc, Routing: harness.UCMP, Transport: transport.DCTCP, Alpha: params.Alpha,
			Horizon: horizon, Seed: c.pseed(), FabricCacheDir: c.dir, Flows: flows,
		})
		if res == nil {
			return
		}
		c.res.SimS += secs
		c.res.Delivered += res.Counters.DataDelivered
		c.endTimed()
		ctr, events = res.Counters, res.Events
		c.finishHarnessRun(name, res)
		c.recordUCMP(res.Collector, len(flows))
	}
	c.countRun(ctr, events, len(flows))
	if !bytes.Equal(warm.Table.Bytes(), table.Bytes()) {
		c.fail("fabriccache.Load: loaded ToR-0 table differs from the compiled one")
	}
	for _, f := range flows {
		if !f.Finished {
			c.fail("%s: permutation flow %d did not finish by %v", name, f.ID, horizon)
			break
		}
	}
}

// resilienceConfig is the resilience workload's base: UCMP+DCTCP on the
// 16-ToR fabric with datamining traffic skewed onto hot hosts and
// congestion-aware steering, over a 32 ms traffic window (128 ms horizon).
func resilienceConfig() harness.SimConfig {
	cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "datamining")
	cfg.Seed = traceSeed
	cfg.Duration = 32 * sim.Millisecond
	cfg.Hotspot = 0.3
	cfg.CongestionAware = true
	return cfg
}

// resilience runs one placement with a scripted failure — one ToR and 5% of
// the uplink cables — that goes down a quarter into the traffic window and
// is repaired at its middle, writing a checkpoint every half window. The
// failure is drawn from traceSeed like the traffic and placed by the same
// ToR permutation, so which hot spot it hits is part of the workload, not of
// the draw. A second harness.Run then resumes from the latest checkpoint
// and must reproduce the uninterrupted run's digest.
func resilience(c *iterCtx, traced bool) {
	cfg := resilienceConfig()
	flows := c.poisson(cfg, workload.DataMining())
	resumeFlows := c.poisson(cfg, workload.DataMining())
	var tl *failure.Timeline
	if !c.op("harness.BuildFailureTimeline", func() (err error) {
		c.setupStep("failure.BuildFailureTimeline", "failure.timeline_s", func() {
			tl, err = harness.BuildFailureTimeline(cfg, 1.0/16, 0.05, 0, cfg.Duration/4, cfg.Duration/2)
			if err == nil {
				tl = relabelFailures(tl, c.perm(cfg.Topo.NumToRs))
			}
		})
		return err
	}) {
		return
	}
	cfg.Failures = tl
	cfg.Flows = flows
	cfg.CheckpointDir = filepath.Join(c.dir, "checkpoints")
	cfg.CheckpointEvery = cfg.Duration / 2
	res, secs := c.runHarness("uninterrupted", cfg)
	if res == nil {
		return
	}
	c.res.SimS += secs
	c.res.Delivered += res.Counters.DataDelivered
	rcfg := cfg
	rcfg.Flows = resumeFlows
	rcfg.Resume = true
	resumed, resumeSecs := c.runHarness("resumed", rcfg)
	c.endTimed()
	if traced {
		c.layer("checkpoint.resume_s", resumeSecs)
		c.layer("_uninterrupted_s", secs)
	}
	c.countRun(res.Counters, res.Events, len(flows))
	c.recordUCMP(res.Collector, res.Launched)
	want := c.finishHarnessRun("uninterrupted", res)
	if resumed != nil {
		got := c.finishHarnessRun("resumed", resumed)
		switch {
		case !strings.HasPrefix(resumed.ResumeNote, "resumed at"):
			c.fail("resumed: did not restore a checkpoint: %q", resumed.ResumeNote)
		case got != want:
			c.fail("resumed: digest %016x differs from the uninterrupted run's %016x", got, want)
		}
	}
	// The latest snapshot must load and validate on its own.
	files, _ := filepath.Glob(filepath.Join(cfg.CheckpointDir, "*.ucmpckp"))
	if len(files) != 1 {
		c.fail("checkpoint: want one checkpoint file, found %d", len(files))
		return
	}
	var lerr error
	var load float64
	c.step("checkpoint.Load", &load, func() { _, lerr = checkpoint.Load(files[0]) })
	if lerr != nil {
		c.fail("checkpoint.Load: %v", lerr)
	}
	if !traced {
		return
	}
	c.layer("checkpoint.load_s", load)
	if st, err := os.Stat(files[0]); err == nil {
		c.layer("checkpoint.bytes", float64(st.Size()))
	}
	writes := 0
	for t := cfg.CheckpointEvery; t < 4*cfg.Duration; t += cfg.CheckpointEvery {
		writes++
	}
	c.layer("checkpoint.writes", float64(writes))

	// Re-wire the uninterrupted run from the constructors (checkpointing
	// never perturbs a run, so the digests must agree) to time route
	// planning and check the full conservation ledger.
	var fab *topo.Fabric
	var ps *core.PathSet
	var w *wiredRun
	c.op("uninterrupted (wired)", func() (err error) {
		var fabS, psS float64
		c.step("topo.NewFabric", &fabS, func() { fab, err = topo.NewFabric(cfg.Topo, harness.ScheduleFor(cfg.Routing), cfg.Seed) })
		c.layer("topo.fabric_s", fabS)
		if err != nil {
			return err
		}
		c.step("core.BuildPathSetWith", &psS, func() { ps = core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel) })
		c.layer("core.pathset_s", psS)
		w, err = c.runWired(wiring{name: "uninterrupted", fab: fab, ps: ps, routing: harness.UCMP, transport: transport.DCTCP,
			congestion: true, failures: tl, flows: c.placed(cfg, workload.DataMining()), horizon: 4 * cfg.Duration})
		return err
	})
	if w != nil {
		c.layer("netsim.inflight_end", float64(w.inFlight))
		if err := checkRun(w.net.Counters, w.net.Flows(), w.col, w.inFlight); err != nil {
			c.fail("uninterrupted (wired): %v", err)
		}
		if got := digest(w.net.Counters, w.net.Flows()); got != want {
			c.fail("uninterrupted (wired): digest %016x differs from harness.Run's %016x", got, want)
		}
	}
}
