package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"ucmp/internal/failure"
	"ucmp/internal/harness"
	"ucmp/internal/metrics"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// smallRun is a quick UCMP+DCTCP websearch run on the 16-ToR fabric.
func smallRun(t *testing.T) *harness.Result {
	t.Helper()
	cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	cfg.Duration = 500 * sim.Microsecond
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDigestStableAcrossSameSeedRuns(t *testing.T) {
	a, b := smallRun(t), smallRun(t)
	da, db := digest(a.Counters, a.Flows), digest(b.Counters, b.Flows)
	if da != db {
		t.Fatalf("same-seed runs digest differently: %016x vs %016x", da, db)
	}
	if err := checkRun(a.Counters, a.Flows, a.Collector, -1); err != nil {
		t.Fatal(err)
	}

	// Flow order does not matter: flows are digested in ID order.
	rev := append([]*netsim.Flow(nil), b.Flows...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if d := digest(b.Counters, rev); d != da {
		t.Fatalf("reordering flows changed the digest")
	}

	// One flow finishing a nanosecond later is a different outcome.
	var f *netsim.Flow
	for _, fl := range b.Flows {
		if fl.Finished {
			f = fl
			break
		}
	}
	if f == nil {
		t.Fatal("no finished flow in the small run")
	}
	f.FinishedAt++
	if d := digest(b.Counters, b.Flows); d == da {
		t.Fatalf("changing flow %d's finish time kept the digest", f.ID)
	}
}

func TestCheckRunLedger(t *testing.T) {
	c := netsim.Counters{DataInjected: 10, DataDelivered: 6, TrimmedDelivered: 1, DataDropped: 1}
	if err := checkRun(c, nil, &metrics.Collector{}, 2); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	if err := checkRun(c, nil, &metrics.Collector{}, 1); err == nil {
		t.Fatal("a leaked packet passed the full ledger")
	}
	if err := checkRun(c, nil, &metrics.Collector{}, -1); err != nil {
		t.Fatalf("weak ledger rejected a consistent run: %v", err)
	}
	c.DataDelivered = 9
	if err := checkRun(c, nil, &metrics.Collector{}, -1); err == nil {
		t.Fatal("more packets ended than were injected, and the weak ledger passed")
	}
}

// stubRouter returns a fixed route, failing every third plan.
type stubRouter struct{ calls int }

func (s *stubRouter) Name() string                  { return "stub" }
func (s *stubRouter) RotorFlow(f *netsim.Flow) bool { return f.Size > 100 }
func (s *stubRouter) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	s.calls++
	if s.calls%3 == 0 {
		return nil, false
	}
	return append(buf, netsim.PlannedHop{To: tor, AbsSlice: fromAbs}, netsim.PlannedHop{To: s.calls, AbsSlice: fromAbs + 1}), true
}

func TestTimedRouterPassesRoutesThrough(t *testing.T) {
	var hist latencyHist
	inner, ref := &stubRouter{}, &stubRouter{}
	r := &timedRouter{Router: inner, ns: &hist}
	buf := make([]netsim.PlannedHop, 0, 4)
	for i := 0; i < 30; i++ {
		got, gok := r.PlanRoute(nil, i%16, sim.Time(i), int64(i), buf)
		want, wok := ref.PlanRoute(nil, i%16, sim.Time(i), int64(i), nil)
		if gok != wok || len(got) != len(want) {
			t.Fatalf("plan %d: got %v/%v, want %v/%v", i, got, gok, want, wok)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("plan %d hop %d: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
		if gok && &got[0] != &buf[:1][0] {
			t.Fatalf("plan %d: the caller's buffer was not passed through", i)
		}
	}
	if r.plans != 30 || r.failed != 10 || hist.n != 30 {
		t.Fatalf("counted %d plans, %d failed, %d timings; want 30, 10, 30", r.plans, r.failed, hist.n)
	}
	if r.Name() != "stub" || !r.RotorFlow(&netsim.Flow{Size: 200}) || r.RotorFlow(&netsim.Flow{Size: 1}) {
		t.Fatal("Name/RotorFlow not delegated")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for ns := int64(1); ns <= 100; ns++ {
		h.add(ns)
	}
	h.add(10000)
	if p50 := h.quantile(0.5); p50 != 51 {
		t.Fatalf("p50 = %v, want 51", p50)
	}
	if max := h.quantile(1); max != 8192 {
		t.Fatalf("max = %v, want the 8192 ns bucket", max)
	}
}

// TestPhaseAccounting checks how the timed section is cut into phases:
// each call's seconds are counted once, wall_s covers them, and nothing is
// counted after endTimed.
func TestPhaseAccounting(t *testing.T) {
	c := &iterCtx{res: &iterResult{Layer: map[string]float64{}}}
	c.beginTimed()
	c.setupStep("setup", "x", func() { time.Sleep(5 * time.Millisecond) })
	var secs float64
	c.step("simulate", &secs, func() { time.Sleep(time.Duration(2 * phaseMinS * float64(time.Second))) })
	c.res.SimS += secs
	c.step("simulate again", nil, func() { time.Sleep(time.Millisecond) })
	c.endTimed()
	r := c.res
	wall := r.WallS
	c.step("after", nil, func() { time.Sleep(time.Millisecond) })
	c.endTimed()
	if r.WallS != wall {
		t.Fatalf("a step after endTimed added %v s", r.WallS-wall)
	}
	if r.SimS < 2*phaseMinS || r.WallS < r.SetupS+r.SimS {
		t.Fatalf("wall %v s, setup %v s, simulate %v s", r.WallS, r.SetupS, r.SimS)
	}
	if r.StealFrac != 0 || r.ProbeS != 0 {
		t.Fatalf("an iteration without a prober recorded stolen share %v, probe %v s", r.StealFrac, r.ProbeS)
	}
}

// TestHostTimeScale checks that endToEnd takes each iteration's stolen
// share out of its host seconds and scales them by refProbeS over its
// median probe to the power memShare, and that unscaled leaves them raw.
func TestHostTimeScale(t *testing.T) {
	iter := func(steal, probe float64) *iterResult {
		return &iterResult{WallS: 8, SetupS: 4, SimS: 4, Delivered: 100, StealFrac: steal, ProbeS: probe}
	}
	// The first iteration is the warm-up: its seconds do not count. The
	// others lose half their time to steal and probe at half speed.
	slow := refProbeS * math.Pow(2, 1/memShare)
	plain := []*iterResult{iter(0, refProbeS), iter(0.5, slow), iter(0.5, slow)}
	m := endToEnd(workloads["scale512"], plain)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	if !near(m["wall_s"].Value, 2) || !near(m["setup_s"].Value, 1) || !near(m["pkts_per_s"].Value, 100) {
		t.Fatalf("wall %v s, setup %v s, %v pkts/s; want 2 s, 1 s, 100/s", m["wall_s"].Value, m["setup_s"].Value, m["pkts_per_s"].Value)
	}
	if raw := endToEnd(workloads["scale512"], unscaled(plain)); raw["wall_s"].Value != 8 {
		t.Fatalf("unscaled wall %v s, want 8 s", raw["wall_s"].Value)
	}
	p, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if p.bytes() != probeWords*8 {
		t.Fatalf("probe buffer is %d bytes, want %d", p.bytes(), probeWords*8)
	}
	if d := p.probe(); d <= 0 || d > 10 {
		t.Fatalf("probe took %v s", d)
	}
}

func TestStealFrac(t *testing.T) {
	t0 := cpuTimes{busy: 10, stolen: 1, ok: true}
	if f := (cpuTimes{busy: 13, stolen: 2, ok: true}).stealFrac(t0); f != 0.25 {
		t.Fatalf("3 s busy and 1 s stolen: steal share %v, want 0.25", f)
	}
	if f := (cpuTimes{busy: 13, stolen: 2}).stealFrac(t0); f != 0 {
		t.Fatalf("failed reading: steal share %v, want 0", f)
	}
	if now := readCPUTimes(); !now.ok || now.busy <= 0 {
		t.Fatalf("/proc/stat: %+v", now)
	}
}

// pb is a tiny protocol-buffer encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
	return b
}

func (b *pb) bytesField(field int, v []byte) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(v))))
	b.Write(v)
	return b
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestAttributeSyntheticProfile(t *testing.T) {
	names := []string{"", "samples", "count", "cpu", "nanoseconds",
		"ucmp/internal/sim.(*Engine).Run",              // 5
		"sort.Slice",                                   // 6
		"ucmp/internal/core.BuildPathSetWith",          // 7
		"runtime.mallocgc",                             // 8
		"ucmp/internal/netsim.(*ToR).ingress",          // 9
		"ucmp/internal/routing.(*UCMP).PlanRoute[...]", // 10
		"internal/bytealg.IndexByte",                   // 11
	}
	var prof pb
	for i := 1; i <= 7; i++ { // function i names string i+4
		var fn pb
		fn.varint(1, uint64(i)).varint(2, uint64(i+4))
		prof.bytesField(5, fn.Bytes())
	}
	// Location 1 = sim leaf; 2 = sort.Slice inlined into core (two lines);
	// 3 = mallocgc; 4 = netsim; 5 = routing; 6 = bytealg.
	locs := [][]uint64{{1}, {2, 3}, {4}, {5}, {6}, {7}}
	for i, fns := range locs {
		var loc pb
		loc.varint(1, uint64(i+1))
		for _, f := range fns {
			var line pb
			line.varint(1, f)
			loc.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, loc.Bytes())
	}
	sample := func(value uint64, locIDs ...uint64) {
		var s pb
		s.bytesField(1, packed(locIDs...))
		s.bytesField(2, packed(1, value))
		prof.bytesField(2, s.Bytes())
	}
	sample(50, 1)    // sim
	sample(30, 2)    // sort.Slice inlined in core: core
	sample(10, 3, 4) // runtime under netsim: go
	sample(6, 6, 5)  // bytealg under routing: routing
	sample(4, 6)     // standard library only: other
	for _, s := range names {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 || len(samples[1].stack) != 2 || samples[1].stack[0] != "sort.Slice" {
		t.Fatalf("decoded %d samples, second stack %v", len(samples), samples[1].stack)
	}
	got := attribute(samples)
	want := map[string]float64{"sim": 0.5, "core": 0.3, "go": 0.1, "routing": 0.06, "other": 0.04}
	if len(got) != len(want) {
		t.Fatalf("attribution %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Fatalf("attribution %v, want %v", got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ucmp/internal/sim.(*timingWheel).popLE":             "sim",
		"ucmp/internal/netsim.(*Network).Start.func1":        "netsim",
		"ucmp/internal/core.calc[go.shape.int,ucmp/x.T].row": "core",
		"ucmp/internal/fabriccache.Load":                     "fabriccache",
		"ucmp/perfbench.(*timedRouter).PlanRoute":            "bench",
		"main.main":              "bench",
		"runtime.gcBgMarkWorker": "go",
		"internal/runtime/maps.(*Map).getWithKeySmall": "go",
		"runtime/pprof.profileWriter":                  "go",
		"sort.insertionSortCmpFunc[go.shape.*uint8]":   "",
		"hash/fnv.(*sum64a).Write":                     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and
// per-layer lists in step with what the program registers and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program registers %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if reg, ok := workloads[w.Name]; !ok || reg.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json and the program disagree", w.Name)
		}
	}
	printed := endToEnd(workloads["scale512"], []*iterResult{{SimS: 1, WallS: 1}})
	if len(spec.EndToEnd) != len(printed) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(printed))
	}
	for _, m := range spec.EndToEnd {
		if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
			t.Errorf("end-to-end metric %q: BENCHMARK.json and the program disagree", m.Name)
		}
	}
	if len(spec.PerLayer) != len(layerList) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(layerList))
	}
	for i, m := range spec.PerLayer {
		if l := layerList[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, l)
		}
	}
}

func TestPlacementMovesTrafficAndFailuresTogether(t *testing.T) {
	perm := placementPerm(16, placementSeed(7, 2))
	flows := relabel([]*netsim.Flow{netsim.NewFlow(1, 3, 30, 1000, 5)}, 2, perm)
	if f := flows[0]; f.SrcHost != perm[1]*2+1 || f.DstHost != perm[15]*2 || f.Size != 1000 || f.Arrival != 5 {
		t.Fatalf("relabeled flow %+v under %v", f, perm)
	}
	tl := failure.NewTimeline().TorDown(10, 1).LinkDown(10, 15, 2).SwitchDown(10, 2)
	got := relabelFailures(tl, perm).Events()
	if got[0].A != perm[1] || got[1].A != perm[15] || got[1].B != 2 || got[2].A != 2 {
		t.Fatalf("relabeled failures %+v under %v", got, perm)
	}
	if placementSeed(7, 2) == placementSeed(7, 3) || placementSeed(7, 2) == placementSeed(8, 2) {
		t.Fatal("placement seeds collide")
	}
}
