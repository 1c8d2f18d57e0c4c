package main

import (
	"strings"
	"time"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// span is one call the benchmark made into a layer. Times are nanoseconds
// since the iteration started; Parent is the index of the enclosing span, or
// -1 at the top level.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps an iteration's spans in memory; the parent process writes
// them out when the run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfSeconds sums each span's self time — its duration minus the part of
// it that its child spans cover — by layer, the span name's first word up to
// the first dot ("core.BuildPathSetWith" is layer "core").
func selfSeconds(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		layer, _, _ = strings.Cut(layer, " ")
		out[layer] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return out
}

// timedRouter decorates a netsim.Router: every PlanRoute call is counted
// and timed, and its result passes through untouched.
type timedRouter struct {
	netsim.Router
	plans, failed int64
	ns            *latencyHist // shared by the iteration's routers
}

func (r *timedRouter) PlanRoute(p *netsim.Packet, tor int, now sim.Time, fromAbs int64, buf []netsim.PlannedHop) ([]netsim.PlannedHop, bool) {
	t0 := time.Now()
	route, ok := r.Router.PlanRoute(p, tor, now, fromAbs, buf)
	r.ns.add(time.Since(t0).Nanoseconds())
	r.plans++
	if !ok {
		r.failed++
	}
	return route, ok
}

// latencyHist is a histogram of nanosecond durations: exact below
// linearNs, power-of-two buckets above.
type latencyHist struct {
	linear [linearNs]uint64
	log    [64]uint64
	n      uint64
}

const linearNs = 4096

func (h *latencyHist) add(ns int64) {
	h.n++
	if ns < 0 {
		ns = 0
	}
	if ns < linearNs {
		h.linear[ns]++
		return
	}
	b := 0
	for v := ns; v > 1; v >>= 1 {
		b++
	}
	h.log[b]++
}

// quantile returns the q-quantile in nanoseconds (the lower edge of its
// bucket above linearNs), or 0 when empty.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n-1)) + 1
	var seen uint64
	for ns, k := range h.linear {
		if seen += k; seen >= rank {
			return float64(ns)
		}
	}
	for b, k := range h.log {
		if seen += k; seen >= rank {
			return float64(uint64(1) << b)
		}
	}
	return float64(uint64(1) << 63)
}
