package harness

import (
	"testing"
)

func TestExtensionCongestion(t *testing.T) {
	base := quickBase()
	rep, out, err := ExtensionCongestion(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing variants")
	}
	plain, aware := out[0], out[1]
	// The congestion-aware variant must not be worse on p99 by a large
	// factor; under hotspots it is expected to help.
	if aware.Collector.Percentile(0.99) > plain.Collector.Percentile(0.99)*3 {
		t.Errorf("congestion-aware p99 %v vastly worse than plain %v",
			aware.Collector.Percentile(0.99), plain.Collector.Percentile(0.99))
	}
	if aware.CompletionRate < plain.CompletionRate-0.1 {
		t.Errorf("congestion-aware completion %v regressed vs %v",
			aware.CompletionRate, plain.CompletionRate)
	}
	_ = rep.String()
}

func TestExtensionMPTCP(t *testing.T) {
	rep, out, err := ExtensionMPTCP(quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing variants")
	}
	for _, res := range out {
		if res.CompletionRate < 0.6 {
			t.Errorf("completion %.2f too low", res.CompletionRate)
		}
	}
	_ = rep.String()
}

func TestExtensionAlphaController(t *testing.T) {
	base := quickBase()
	base.Horizon = 8_000_000 // 8ms
	rep, res, err := ExtensionAlphaController(base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched == 0 {
		t.Fatal("no flows")
	}
	if len(res.Collector.Samples) < 4 {
		t.Fatalf("controller ticked only %d times", len(res.Collector.Samples))
	}
	_ = rep.String()
}

// TestExtensionAlphaControllerCountsEvents pins the controller run's event
// accounting: its Result carries the engine's event count and the same
// count reaches TakeEvents, so `ucmpbench -exp extension` reports events/s
// over both the events and the wall time of the run.
func TestExtensionAlphaControllerCountsEvents(t *testing.T) {
	base := quickBase()
	base.Workload = "websearch"
	base.Horizon = 2_000_000 // 2ms
	TakeEvents()
	res, _, err := runWithAlphaController(base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("controller run reported no events")
	}
	if got := TakeEvents(); got != res.Events {
		t.Fatalf("TakeEvents = %d, want the run's %d events", got, res.Events)
	}

	base.Workload = "no-such-workload"
	if _, _, err := runWithAlphaController(base, 0.05); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
