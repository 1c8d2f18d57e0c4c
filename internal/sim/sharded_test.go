package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The serial-vs-sharded differential model: a set of lanes (one per
// domain), each with its own rng, trace, and cancelable timer. Lane
// handlers only touch their own lane's state and only draw from their own
// rng, so per-lane draw sequences are identical whenever per-lane event
// order is — which is exactly what the sharded engine promises.
//
// Serial-vs-sharded equality needs same-instant cross-lane ties to be
// ordered identically, and the serial engine orders them by global seq
// while the sharded merge orders them by (at, born, src, seq). The lattice
// construction makes the two agree structurally: with M = 2·lanes, lane
// i's intra-lane events run at times ≡ 2i (mod M) and cross events INTO
// lane d land at times ≡ 2d+1 (mod M). Then (a) a cross arrival can never
// tie with an intra-lane event, and (b) two cross arrivals into the same
// lane at the same instant were necessarily born at different times
// (different source lanes occupy disjoint residues), so serial seq order
// equals born order equals the sharded merge order. The worker-count test
// below drops the lattice: any two sharded runs agree regardless of ties.
type shModel struct {
	lanes  []*shLane
	engOf  func(i int) *Engine
	send   func(src, dst int, at Time, fn func(any), arg any)
	window Time
	mod    Time // 0: no lattice alignment
}

type shLane struct {
	m         *shModel
	id        int
	rng       *rand.Rand
	trace     []string
	remaining int
	timer     *Timer
	onCrossFn func(any)
}

// alignTo bumps t to the smallest t' >= t with t' ≡ res (mod m.mod).
func (m *shModel) alignTo(t, res Time) Time {
	if m.mod == 0 {
		return t
	}
	return t + (res-t%m.mod+m.mod)%m.mod
}

func (l *shLane) now() Time { return l.m.engOf(l.id).Now() }

func (l *shLane) scheduleLocal(at Time) {
	l.m.engOf(l.id).At(at, func() {
		l.trace = append(l.trace, fmt.Sprintf("L@%d", l.now()))
		l.step()
	})
}

func (l *shLane) onCross(a any) {
	l.trace = append(l.trace, fmt.Sprintf("X%d@%d", a.(int), l.now()))
	l.step()
}

func (l *shLane) onTimer() {
	l.trace = append(l.trace, fmt.Sprintf("T@%d", l.now()))
	l.step()
}

// step is the lane's randomized behavior, run from every event handler.
func (l *shLane) step() {
	now := l.now()
	m := l.m
	for k := l.rng.Intn(3); k > 0 && l.remaining > 0; k-- {
		l.remaining--
		switch l.rng.Intn(5) {
		case 0, 1: // cross send with lookahead
			d := l.rng.Intn(len(m.lanes))
			at := m.alignTo(now+m.window+Time(l.rng.Int63n(4*int64(m.window))), Time(2*d+1))
			if d == l.id {
				m.engOf(l.id).At1(at, m.lanes[d].onCrossFn, l.id)
			} else {
				m.send(l.id, d, at, m.lanes[d].onCrossFn, l.id)
			}
		case 2: // timer churn: reset or cancel the lane timer
			if l.rng.Intn(4) == 0 {
				l.timer.Cancel()
			} else {
				l.timer.Reset(m.alignTo(now+Time(l.rng.Int63n(6*int64(m.window))), Time(2*l.id)))
			}
		default: // intra-lane event, any delay (below the window included)
			l.scheduleLocal(m.alignTo(now+Time(l.rng.Int63n(3*int64(m.window))), Time(2*l.id)))
		}
	}
}

// seedModel builds lanes and their initial events.
func seedModel(m *shModel, lanes int, seed int64, perLane int) {
	m.lanes = make([]*shLane, lanes)
	for i := range m.lanes {
		l := &shLane{m: m, id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i))), remaining: perLane}
		l.onCrossFn = l.onCross
		l.timer = m.engOf(i).NewTimer(l.onTimer)
		m.lanes[i] = l
		for k := 0; k < 4; k++ {
			l.scheduleLocal(m.alignTo(Time(l.rng.Int63n(8*int64(m.window))), Time(2*i)))
		}
	}
}

// runLatticeSerial runs the lattice model on one serial Engine.
func runLatticeSerial(kind QueueKind, lanes int, seed int64, window Time, horizons []Time) ([][]string, uint64) {
	e := NewEngineQueue(kind)
	m := &shModel{
		engOf:  func(int) *Engine { return e },
		send:   func(_, _ int, at Time, fn func(any), arg any) { e.At1(at, fn, arg) },
		window: window,
		mod:    Time(2 * lanes),
	}
	seedModel(m, lanes, seed, 60)
	for _, h := range horizons {
		e.Run(h)
	}
	return tracesOf(m), e.Processed()
}

// runLatticeSharded runs the same model on a ShardedEngine, one lane per
// domain, and also returns the engine's stats.
func runLatticeSharded(kind QueueKind, lanes, workers int, seed int64, window Time, horizons []Time, lattice bool) ([][]string, uint64, ShardStats) {
	sh := NewShardedEngine(lanes, workers, window, kind)
	m := &shModel{
		engOf:  sh.Domain,
		send:   sh.Send,
		window: window,
	}
	if lattice {
		m.mod = Time(2 * lanes)
	}
	seedModel(m, lanes, seed, 60)
	for _, h := range horizons {
		sh.Run(h)
	}
	return tracesOf(m), sh.Processed(), sh.Stats()
}

func tracesOf(m *shModel) [][]string {
	out := make([][]string, len(m.lanes))
	for i, l := range m.lanes {
		out[i] = l.trace
	}
	return out
}

func compareTraces(t *testing.T, name string, want, got [][]string) {
	t.Helper()
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: lane %d trace lengths differ: %d vs %d", name, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: lane %d diverges at %d: %q vs %q", name, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestDifferentialSerialSharded pins the tentpole determinism claim at the
// engine level: the lattice model produces byte-identical per-lane traces
// on the serial engine and on the sharded engine, across worker counts and
// both queue kinds.
func TestDifferentialSerialSharded(t *testing.T) {
	const lanes = 5
	const window = Time(1000)
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			hrng := rand.New(rand.NewSource(seed + 77))
			horizons := make([]Time, 0, 7)
			h := Time(0)
			for i := 0; i < 6; i++ {
				h += Time(hrng.Int63n(20 * int64(window)))
				horizons = append(horizons, h)
			}
			horizons = append(horizons, h+Second)

			serialTr, serialN := runLatticeSerial(QueueWheel, lanes, seed, window, horizons)
			heapTr, heapN := runLatticeSerial(QueueHeap, lanes, seed, window, horizons)
			compareTraces(t, "serial wheel vs heap", serialTr, heapTr)
			if serialN != heapN {
				t.Fatalf("serial processed: wheel=%d heap=%d", serialN, heapN)
			}
			for _, workers := range []int{1, 2, 3, lanes} {
				for _, kind := range []QueueKind{QueueWheel, QueueHeap} {
					tr, n, _ := runLatticeSharded(kind, lanes, workers, seed, window, horizons, true)
					name := fmt.Sprintf("sharded workers=%d kind=%d", workers, kind)
					compareTraces(t, name, serialTr, tr)
					if n != serialN {
						t.Fatalf("%s: processed %d, serial %d", name, n, serialN)
					}
				}
			}
		})
	}
}

// TestShardedWorkerCountDeterminism drops the lattice alignment (arbitrary
// cross-domain tie patterns) and requires any two sharded runs to agree
// regardless of worker count: the (at, born, src, seq) merge order is a
// total order independent of scheduling. Every window follows the same
// schedule whatever the worker count, so the engine's stats must agree too.
func TestShardedWorkerCountDeterminism(t *testing.T) {
	const lanes = 6
	const window = Time(777)
	for seed := int64(1); seed <= 8; seed++ {
		horizons := []Time{5 * window, 40 * window, Second}
		base, baseN, baseSt := runLatticeSharded(QueueWheel, lanes, 1, seed, window, horizons, false)
		if baseSt.Windows == 0 || baseSt.CrossEvents == 0 || baseSt.MergeBatches == 0 {
			t.Fatalf("seed %d: expected windows, cross events and merges, got %+v", seed, baseSt)
		}
		for _, workers := range []int{2, 3, lanes} {
			tr, n, st := runLatticeSharded(QueueWheel, lanes, workers, seed, window, horizons, false)
			compareTraces(t, fmt.Sprintf("seed %d workers 1 vs %d", seed, workers), base, tr)
			if n != baseN {
				t.Fatalf("seed %d: processed differs: %d vs %d", seed, baseN, n)
			}
			if st != baseSt {
				t.Fatalf("seed %d: stats differ at %d workers: %+v vs %+v", seed, workers, baseSt, st)
			}
		}
	}
}

// TestShardedGlobalEvents pins the Global contract: callbacks run between
// windows at exactly their timestamp, never straddled by a window (every
// domain has advanced to just short of the global when it fires), and the
// coordinator clock lands on the horizon afterwards.
func TestShardedGlobalEvents(t *testing.T) {
	sh := NewShardedEngine(3, 2, 100, QueueWheel)
	var fired []Time
	// Domain traffic past the global instants, including cross sends.
	for d := 0; d < 3; d++ {
		d := d
		sh.Domain(d).At(0, func() {
			var tick func()
			tick = func() {
				e := sh.Domain(d)
				if e.Now() >= 2000 {
					return
				}
				dst := (d + 1) % 3
				sh.Send(d, dst, e.Now()+150, func(any) {}, nil)
				e.After(40, tick)
			}
			tick()
		})
	}
	for _, at := range []Time{500, 500, 1250} {
		at := at
		sh.Global(at, func() {
			if sh.GlobalNow() != at {
				t.Fatalf("global clock %v, want %v", sh.GlobalNow(), at)
			}
			for i := 0; i < sh.Domains(); i++ {
				if n := sh.Domain(i).Now(); n >= at {
					t.Fatalf("domain %d at %v not strictly before global %v", i, n, at)
				}
			}
			fired = append(fired, at)
		})
	}
	end := sh.Run(3000)
	if end != 3000 || sh.GlobalNow() != 3000 {
		t.Fatalf("run ended at %v (global clock %v), want 3000", end, sh.GlobalNow())
	}
	want := []Time{500, 500, 1250}
	if len(fired) != len(want) {
		t.Fatalf("globals fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("globals fired %v, want %v", fired, want)
		}
	}
	st := sh.Stats()
	if st.Windows == 0 || st.CrossEvents == 0 {
		t.Fatalf("expected windows and cross events, got %+v", st)
	}
}

// TestShardedWindowLimits pins the window limit on purely domain-local
// traffic: a global event mid-run caps a window, so it must fire at its
// exact timestamp with every domain strictly before it, and a horizon that
// is not a multiple of the window must land exactly.
func TestShardedWindowLimits(t *testing.T) {
	const window = Time(100)
	const horizon = Time(123_457) // deliberately not window-aligned
	sh := NewShardedEngine(4, 2, window, QueueWheel)
	ticks := make([]int, 4)
	for d := 0; d < 4; d++ {
		d := d
		var tick func()
		tick = func() {
			ticks[d]++
			if e := sh.Domain(d); e.Now() < horizon-50 {
				e.After(40, tick)
			}
		}
		sh.Domain(d).At(0, func() { tick() })
	}
	globalFired := false
	sh.Global(60_000, func() {
		if sh.GlobalNow() != 60_000 {
			t.Errorf("global clock %v, want 60000", sh.GlobalNow())
		}
		for i := 0; i < sh.Domains(); i++ {
			if n := sh.Domain(i).Now(); n >= 60_000 {
				t.Errorf("domain %d at %v not strictly before the global", i, n)
			}
		}
		globalFired = true
	})
	if end := sh.Run(horizon); end != horizon {
		t.Fatalf("run ended at %v, want %v", end, horizon)
	}
	if !globalFired {
		t.Fatal("global event never fired")
	}
	for d, n := range ticks {
		if n == 0 {
			t.Fatalf("domain %d ran no events", d)
		}
	}
	if st := sh.Stats(); st.CrossEvents != 0 {
		t.Fatalf("local-only traffic counted %d cross events", st.CrossEvents)
	}
}

// TestShardedSendLookaheadPanics pins the lookahead contract.
func TestShardedSendLookaheadPanics(t *testing.T) {
	sh := NewShardedEngine(2, 1, 1000, QueueWheel)
	sh.Domain(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the lookahead window did not panic")
			}
		}()
		sh.Send(0, 1, 999, func(any) {}, nil)
	})
	sh.Run(10)
}
