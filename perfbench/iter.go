package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"ucmp/internal/failure"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
)

// workloadSpec is one named benchmark input. An iteration simulates one
// placement: the workload's traffic with its ToRs relabeled by a permutation
// drawn from the seed and the placement index. plain runs an iteration
// through harness.Run as a user would; traced runs the same iteration with
// spans around every call into a layer, re-wiring the simulation from the
// layers' public constructors where that exposes route planning.
type workloadSpec struct {
	name, why string
	// placements is how many distinct placements a run pools its
	// simulated-time metrics over; iteration i simulates placement
	// i mod placements.
	placements int
	plain      func(c *iterCtx)
	traced     func(c *iterCtx)
}

var workloads = map[string]*workloadSpec{}

func register(w *workloadSpec) { workloads[w.name] = w }

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runDigest is the model digest of one simulation run.
type runDigest struct {
	Run    string `json:"run"`
	Digest string `json:"digest"`
}

// iterResult is what a worker process reports for one iteration.
type iterResult struct {
	Placement int     `json:"placement"`
	WallS     float64 `json:"wall_s"`  // setup plus simulate
	SetupS    float64 `json:"setup_s"` // the benchmark's own calls before any simulation
	SimS      float64 `json:"sim_s"`   // harness.Run (or wired Engine.Run) calls
	// StealFrac is the share of the machine's busy-or-stolen CPU time that
	// the hypervisor stole during the timed section, and ProbeS the median
	// CPU seconds of the memory probes taken in it (machine.go). Profiled
	// and traced iterations take neither and leave both 0.
	StealFrac float64 `json:"steal_frac"`
	ProbeS    float64 `json:"probe_s"`
	// Delivered is Counters.DataDelivered summed over the simulate phase's
	// runs (a resumed run is excluded: it re-simulates only the tail).
	Delivered int64 `json:"delivered"`
	// ShortFCTUs are the simulated FCTs, in µs, of completed UCMP flows of
	// at most 100 KB; UCMPLaunched and UCMPCompleted count UCMP flows.
	ShortFCTUs    []float64   `json:"short_fct_us"`
	UCMPLaunched  int         `json:"ucmp_launched"`
	UCMPCompleted int         `json:"ucmp_completed"`
	Digests       []runDigest `json:"digests"`
	Ops           int         `json:"ops"`
	Failures      []string    `json:"failures"` // one entry per failed op
	PeakRSSMB     float64     `json:"peak_rss_mb"`
	// Layer holds per-layer counts and timings (README.md lists them).
	Layer map[string]float64 `json:"layer"`
	Spans []span             `json:"spans,omitempty"`
}

// iterCtx carries one iteration's inputs and accumulates its result.
type iterCtx struct {
	w         *workloadSpec
	seed      int64
	placement int
	dir       string // private working directory, fresh for this iteration
	tr        *tracer
	res       *iterResult
	planNs    latencyHist // PlanRoute durations of the wired runs
	probe     *prober     // nil: record no machine state
	probes    []float64   // CPU seconds each probe took
	cpu0      cpuTimes    // the machine's CPU times when the timed section began
	phaseAt   time.Time   // when the timed phase in progress began
	timedDone bool
}

// beginTimed opens the iteration's timed section.
func (c *iterCtx) beginTimed() {
	if c.probe != nil {
		c.probes = append(c.probes, c.probe.probe())
		c.cpu0 = readCPUTimes()
	}
	c.phaseAt = time.Now()
}

// endTimed closes the iteration's timed section: wall_s is everything from
// the first setup call to here, less the probes. Correctness checks run
// after it.
func (c *iterCtx) endTimed() {
	c.closePhase(true)
	c.timedDone = true
	if c.probe != nil {
		c.res.StealFrac = readCPUTimes().stealFrac(c.cpu0)
		c.res.ProbeS = median(c.probes)
	}
}

// closePhase ends the timed phase in progress when it has run for
// phaseMinS, or when force is set: it adds the phase's seconds to wall_s,
// probes, and opens the next phase. Probes between phases sample the
// machine's memory speed all through the iteration without being timed.
func (c *iterCtx) closePhase(force bool) {
	wall := time.Since(c.phaseAt).Seconds()
	if c.timedDone || (!force && wall < phaseMinS) {
		return
	}
	c.res.WallS += wall
	if c.probe != nil {
		c.probes = append(c.probes, c.probe.probe())
	}
	c.phaseAt = time.Now()
}

// placementSeed derives the seed of one placement from the run's seed.
func placementSeed(seed int64, placement int) int64 {
	// splitmix64 finalizer: nearby (seed, placement) pairs map far apart.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(placement+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func (c *iterCtx) pseed() int64 { return placementSeed(c.seed, c.placement) }

// perm is the iteration's ToR permutation.
func (c *iterCtx) perm(numToRs int) []int { return placementPerm(numToRs, c.pseed()) }

// placementPerm is the ToR permutation a placement seed draws.
func placementPerm(numToRs int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(numToRs)
}

// relabel copies a flow trace onto a ToR permutation: host h of ToR t
// becomes host h of ToR perm[t]. Sizes, arrivals and IDs are kept, so the
// offered work is the trace's while the placement varies; the copies are
// fresh, unregistered flows.
func relabel(flows []*netsim.Flow, hostsPerToR int, perm []int) []*netsim.Flow {
	out := make([]*netsim.Flow, len(flows))
	for i, f := range flows {
		src := perm[f.SrcHost/hostsPerToR]*hostsPerToR + f.SrcHost%hostsPerToR
		dst := perm[f.DstHost/hostsPerToR]*hostsPerToR + f.DstHost%hostsPerToR
		out[i] = netsim.NewFlow(f.ID, src, dst, f.Size, f.Arrival)
	}
	return out
}

// relabelFailures moves a failure script's ToRs, and the ToR ends of its
// cables, by the same permutation, keeping times and switches.
func relabelFailures(tl *failure.Timeline, perm []int) *failure.Timeline {
	out := failure.NewTimeline()
	for _, e := range tl.Events() {
		switch e.Kind {
		case failure.EvTorDown, failure.EvTorUp, failure.EvLinkDown, failure.EvLinkUp:
			e.A = perm[e.A]
		}
		out.Add(e)
	}
	return out
}

// step runs fn as one call into a layer: it adds the elapsed seconds to
// *acc (when acc is non-nil) and, on a traced iteration, records a span.
//
// A step first closes the timed phase in progress if that has run for
// phaseMinS, so that probes fall between calls, never inside one.
func (c *iterCtx) step(name string, acc *float64, fn func()) {
	c.closePhase(false)
	end := c.tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	end()
	if acc != nil {
		*acc += d
	}
}

// setupStep runs fn as a setup call into a layer, adding its seconds to
// setup_s and to the per-layer metric.
func (c *iterCtx) setupStep(name, metric string, fn func()) {
	var d float64
	c.step(name, &d, fn)
	c.res.SetupS += d
	c.layer(metric, d)
}

// layer adds v to a per-layer metric.
func (c *iterCtx) layer(name string, v float64) { c.res.Layer[name] += v }

// op runs fn as one attempted operation (a simulation run or a pipeline
// step). A panic or a returned error marks the op failed instead of ending
// the iteration; ok reports whether it succeeded.
func (c *iterCtx) op(name string, fn func() error) (ok bool) {
	c.res.Ops++
	defer func() {
		if r := recover(); r != nil {
			c.fail("%s: panic: %v\n%s", name, r, debug.Stack())
			ok = false
		}
	}()
	if err := fn(); err != nil {
		c.fail("%s: %v", name, err)
		return false
	}
	return true
}

// fail records a failed op.
func (c *iterCtx) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "perfbench: %s placement %d: %s\n", c.w.name, c.placement, msg)
	c.res.Failures = append(c.res.Failures, msg)
}

// runHarness runs one simulation through harness.Run as one op and returns
// its result (nil when it failed) and its host seconds. Globals the harness
// aggregates across runs are drained around it, so the scheduler statistics
// folded into the layer metrics are this run's own.
func (c *iterCtx) runHarness(name string, cfg harness.SimConfig) (*harness.Result, float64) {
	drainHarness()
	var res *harness.Result
	var secs float64
	c.op(name, func() error {
		var err error
		c.step("harness.Run "+name, &secs, func() { res, err = harness.Run(cfg) })
		return err
	})
	if secs > c.res.Layer["harness.run_s_max"] {
		c.res.Layer["harness.run_s_max"] = secs
	}
	st := harness.TakeSchedStats()
	c.layer("sim.cascades", float64(st.Cascades))
	c.layer("sim.dead_pops", float64(st.DeadPops))
	if v := float64(st.PendingHighWater); v > c.res.Layer["sim.pending_hwm"] {
		c.res.Layer["sim.pending_hwm"] = v
	}
	if notes := harness.TakeShardNotes(); len(notes) > 0 {
		c.fail("%s: unexpected engine note %q", name, notes)
	}
	return res, secs
}

func drainHarness() {
	harness.TakeSchedStats()
	harness.TakeShardNotes()
	harness.TakeEvents()
}

// runWorker runs one iteration in this process and returns its result.
func runWorker(w *workloadSpec, mode string, seed int64, placement int, dir, profile string, traceStats bool) *iterResult {
	res := &iterResult{Placement: placement, Layer: map[string]float64{}}
	c := &iterCtx{w: w, seed: seed, placement: placement, dir: dir, res: res}
	if mode == "traced" {
		c.tr = newTracer()
	}
	// Scheduler internals are aggregated only when per-layer numbers are
	// wanted; timed runs leave the harness at its defaults.
	harness.CollectSchedStats = traceStats
	if profile != "" {
		f, err := os.Create(profile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			c.fail("cpu profile: %v", err)
		} else {
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
	}
	// Untraced iterations record the machine's state for the host-time
	// metrics; profiled and traced ones measure layers, not the machine.
	if mode == "plain" && profile == "" {
		p, err := newProber()
		if err != nil {
			c.fail("memory probe: %v", err)
		} else {
			c.probe = p
			defer p.close()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c.beginTimed()
	switch mode {
	case "plain":
		w.plain(c)
	case "traced":
		w.traced(c)
	default:
		c.fail("unknown worker mode %q", mode)
	}
	runtime.ReadMemStats(&ms1)
	res.Layer["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.Layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Layer["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.PeakRSSMB = peakRSSMB()
	if c.probe != nil {
		res.PeakRSSMB -= float64(c.probe.bytes()) / (1 << 20)
	}
	if c.tr != nil {
		res.Layer["routing.plan_ns_p50"] = c.planNs.quantile(0.50)
		res.Layer["routing.plan_ns_p99"] = c.planNs.quantile(0.99)
		res.Spans = c.tr.spans
	}
	return res
}

// peakRSSMB returns the process's resident high-water mark (VmHWM) in MiB,
// falling back to getrusage where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024 // kB on Linux
	}
	return 0
}
