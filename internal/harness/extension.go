package harness

import (
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// ExtensionCongestion evaluates the §10 congestion-aware extension under a
// hotspot-skewed web search workload: plain UCMP versus UCMP that steers
// around congested calendar queues within one bucket of uniform-cost
// slack.
func ExtensionCongestion(base SimConfig) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	if base.Hotspot == 0 {
		base.Hotspot = 0.5
	}
	r := &Report{Title: "Extension (§10): congestion-aware path assignment under hotspots"}
	r.Addf("%-22s %-10s %-10s %-10s %-9s %-8s", "variant", "<=10KB", "<=100KB", "p99", "complete", "reroute")
	var out []*Result
	for _, v := range []struct {
		name  string
		aware bool
	}{{"uniform cost only", false}, {"congestion-aware", true}} {
		cfg := base
		cfg.CongestionAware = v.aware
		res, err := Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
		bins := coarseBins(res.Collector)
		r.Addf("%-22s %-10s %-10s %-10s %-9.2f %-8.4f",
			v.name, fmtT(bins[0]), fmtT(bins[1]), res.Collector.Percentile(0.99),
			res.CompletionRate, res.ReroutedFrac)
	}
	r.Addf("(steering within one bucket of slack relieves hot calendar queues)")
	return r, out, nil
}

// ExtensionAlphaController runs UCMP with a live proportional controller
// driving α toward a target ToR-to-ToR utilization and reports the
// trajectory.
func ExtensionAlphaController(base SimConfig, targetUtil float64) (*Report, *Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	base.Transport = transport.DCTCP
	if base.SampleEvery == 0 {
		base.SampleEvery = 500 * sim.Microsecond
	}
	// The controller needs live access: replicate harness.Run wiring with
	// a control loop layered on top.
	res, trace, err := runWithAlphaController(base, targetUtil)
	if err != nil {
		return nil, nil, err
	}
	r := &Report{Title: "Extension (§5.2): live alpha controller"}
	r.Addf("target ToR-to-ToR utilization: %.2f", targetUtil)
	r.Addf("%-12s %-8s %-12s", "time", "alpha", "core util")
	for _, tr := range trace {
		r.Addf("%-12s %-8.3f %-12.3f", tr.at, tr.alpha, tr.util)
	}
	final := res.Collector.MeanUtil(len(res.Collector.Samples)/2, func(s netsim.Sample) float64 { return s.TorToTorUtil })
	r.Addf("second-half mean core utilization: %.3f", final)
	return r, res, nil
}

// ExtensionMPTCP compares single-path DCTCP with the MPTCP-style striped
// transport over UCMP's parallel paths (§10: "an adoption of MPTCP-like
// transport could benefit performance").
func ExtensionMPTCP(base SimConfig) (*Report, []*Result, error) {
	base.Workload = "websearch"
	base.Routing = UCMP
	r := &Report{Title: "Extension (§10): MPTCP-style subflows over parallel UCMP paths"}
	r.Addf("%-14s %-10s %-10s %-10s %-12s", "transport", "<=100KB", "<=1MB", ">1MB", "efficiency")
	var out []*Result
	for _, k := range []transport.Kind{transport.DCTCP, transport.MPTCP} {
		cfg := base
		cfg.Transport = k
		res, err := Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
		bins := coarseBins(res.Collector)
		r.Addf("%-14s %-10s %-10s %-10s %-12.3f",
			string(k), fmtT(bins[1]), fmtT(bins[2]), fmtT(bins[3]), res.Efficiency)
	}
	return r, out, nil
}

type alphaTracePoint struct {
	at    sim.Time
	alpha float64
	util  float64
}

// runWithAlphaController is harness.Run with a proportional α controller
// ticking during the simulation. Because bucket thresholds are α-free
// (Eqn. 4), retuning only updates the host-side aging map — exactly the
// paper's "broadcast new values of α to the hosts".
func runWithAlphaController(cfg SimConfig, target float64) (*Result, []alphaTracePoint, error) {
	cfg.Routing = UCMP
	base := cfg
	base.SampleEvery = 0 // sampling is driven by the controller below

	fabCfg := base.Topo
	fab, err := newFabricFor(base, fabCfg)
	if err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngineQueue(base.Queue)
	ps := buildPathSetFor(fab, base)
	router := newUCMPFor(ps, base)
	qs := transport.QueueSpec(base.Transport)
	net := netsim.New(eng, fab, router, qs, qs, netsim.DefaultRotor())
	net.Stamper = router.StampBucket
	net.Start()

	flows, err := generateFlows(base)
	if err != nil {
		return nil, nil, err
	}
	col := newCollector(net, len(flows))
	stack := transport.NewStack(net, base.Transport)
	for _, f := range flows {
		stack.Launch(f)
	}

	horizon := base.Horizon
	if horizon == 0 {
		horizon = 4 * base.Duration
	}

	var trace []alphaTracePoint
	var prev *netsim.Sample
	alpha := base.Alpha
	const gain = 3.0
	tick := 500 * sim.Microsecond
	var control func()
	control = func() {
		s := net.TakeSample(prev)
		col.Samples = append(col.Samples, s)
		prev = &col.Samples[len(col.Samples)-1]
		// Proportional step: utilization above target -> raise α ->
		// shorter paths -> less core load.
		alpha += gain * (s.TorToTorUtil - target)
		alpha = clampF(alpha, 0.05, 3.0)
		router.Ager.SetAlpha(alpha)
		ps.SetAlpha(alpha)
		trace = append(trace, alphaTracePoint{at: eng.Now(), alpha: alpha, util: s.TorToTorUtil})
		if eng.Now()+tick <= horizon {
			eng.After(tick, control)
		}
	}
	eng.After(tick, control)
	eng.Run(horizon)
	recordSchedStats(eng.SchedStats())
	eventsProcessed.Add(eng.Processed())

	return &Result{
		Config:         base,
		Collector:      col,
		Counters:       net.Counters,
		Efficiency:     net.BandwidthEfficiency(),
		ReroutedFrac:   net.ReroutedFraction(),
		CompletionRate: col.CompletionRate(),
		Launched:       len(flows),
		Events:         eng.Processed(),
		JainCumulative: net.JainCumulative(),
		Flows:          net.Flows(),
	}, trace, nil
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
