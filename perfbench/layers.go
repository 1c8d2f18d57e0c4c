package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit, better string }

// layerList is every per-layer metric the final line prints, in
// BENCHMARK.json order. README.md says which end-to-end metric each should
// move, and on which workload. Layers a workload never calls read 0; their
// timings are printed as throughputs or ratios here (the raw seconds go to
// the trace file), because a time that reads 0 on every run of a workload
// is indistinguishable from one that was never measured.
var layerList = []layerMetric{
	{"sim.events", "count", "lower"},
	{"sim.events_per_pkt", "events/pkt", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.cascades", "count", "lower"},
	{"sim.pending_hwm", "count", "lower"},
	{"sim.dead_pops", "count", "lower"},
	{"sim.self_frac", "frac", "lower"},
	{"netsim.data_pkts", "count", "lower"},
	{"netsim.recirc_expired", "count", "lower"},
	{"netsim.recirc_late", "count", "lower"},
	{"netsim.recirc_calfull", "count", "lower"},
	{"netsim.drops", "count", "lower"},
	{"netsim.trimmed", "count", "lower"},
	{"netsim.fault_drops", "count", "lower"},
	{"netsim.inflight_end", "count", "lower"},
	{"netsim.self_frac", "frac", "lower"},
	{"routing.plans", "count", "lower"},
	{"routing.plan_ns_p50", "ns", "lower"},
	{"routing.plan_ns_p99", "ns", "lower"},
	{"routing.plan_failed", "count", "lower"},
	{"routing.steered", "count", "higher"},
	{"routing.recovered", "count", "higher"},
	{"routing.recovery_failed", "count", "lower"},
	{"routing.table_rows_per_s", "1/s", "higher"},
	{"routing.self_frac", "frac", "lower"},
	{"core.pathset_s", "s", "lower"},
	{"core.canon_rows", "count", "lower"},
	{"core.canon_unique", "count", "lower"},
	{"core.self_frac", "frac", "lower"},
	{"topo.fabric_s", "s", "lower"},
	{"topo.self_frac", "frac", "lower"},
	{"fabriccache.save_mb_per_s", "MB/s", "higher"},
	{"fabriccache.load_mb_per_s", "MB/s", "higher"},
	{"fabriccache.file_mb", "MB", "lower"},
	{"workload.generate_s", "s", "lower"},
	{"workload.flows", "count", "higher"},
	{"transport.launch_s", "s", "lower"},
	{"transport.rtx_bytes_frac", "frac", "lower"},
	{"transport.self_frac", "frac", "lower"},
	{"checkpoint.writes", "count", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"checkpoint.load_mb_per_s", "MB/s", "higher"},
	{"checkpoint.resume_frac", "frac", "lower"},
	{"checkpoint.self_frac", "frac", "lower"},
	{"metrics.self_frac", "frac", "lower"},
	{"harness.run_s_max", "s", "lower"},
	{"harness.wire_s", "s", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.self_frac", "frac", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// plainLayerKeys are taken from the untraced placement-0 iteration rather
// than the traced one: the harness reports scheduler statistics only for
// its own runs, and spans and decorators would inflate the others.
var plainLayerKeys = []string{
	"sim.cascades", "sim.dead_pops", "sim.pending_hwm",
	"go.alloc_mb", "go.gc_cycles", "go.gc_pause_ms", "harness.run_s_max",
}

// layerMetrics assembles the per-layer metrics: counts and timings from
// the traced iteration, scheduler and runtime figures from the untraced
// placement-0 iteration, event throughput over all untraced iterations, and
// *.self_frac from the CPU profiles the untraced iterations wrote.
//
// It also returns every per-layer value it computed, the raw seconds of the
// workload-specific layers included, for the trace file.
func layerMetrics(plain []*iterResult, traced *iterResult, runDir string) (map[string]metric, map[string]float64, error) {
	vals := map[string]float64{}
	for k, v := range traced.Layer {
		vals[k] = v
	}
	for _, k := range plainLayerKeys {
		vals[k] = plain[0].Layer[k]
	}
	if d := vals["_delivered_pkts"]; d > 0 {
		vals["sim.events_per_pkt"] = vals["sim.events"] / d
	}
	var events, simS float64
	var walls0 []float64
	for _, r := range plain {
		events += r.Layer["sim.events"]
		simS += r.SimS
		if r.Placement == 0 && len(r.Failures) == 0 {
			walls0 = append(walls0, r.WallS)
		}
	}
	if simS > 0 {
		vals["sim.events_per_s"] = events / simS
	}
	if d := vals["_bytes_delivered"]; d > 0 {
		vals["transport.rtx_bytes_frac"] = vals["_bytes_sent"]/d - 1
	}
	if len(walls0) > 0 {
		vals["trace.overhead_s"] = traced.WallS - median(walls0)
	}
	ratio := func(name, num, den string) {
		if d := vals[den]; d > 0 {
			vals[name] = vals[num] / d
		}
	}
	ratio("routing.table_rows_per_s", "_table_rows", "routing.table_compile_s")
	ratio("fabriccache.save_mb_per_s", "fabriccache.file_mb", "fabriccache.save_s")
	ratio("fabriccache.load_mb_per_s", "fabriccache.file_mb", "fabriccache.load_s")
	vals["_checkpoint_mb"] = vals["checkpoint.bytes"] / (1 << 20)
	ratio("checkpoint.load_mb_per_s", "_checkpoint_mb", "checkpoint.load_s")
	ratio("checkpoint.resume_frac", "checkpoint.resume_s", "_uninterrupted_s")

	profiles, _ := filepath.Glob(filepath.Join(runDir, "cpu*.pprof"))
	var samples []cpuSample
	for _, p := range profiles {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		s, err := parseProfile(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
		samples = append(samples, s...)
	}
	for l, frac := range attribute(samples) {
		vals[l+".self_frac"] = frac
	}

	out := map[string]metric{}
	for _, m := range layerList {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	for k := range vals {
		if strings.HasPrefix(k, "_") {
			delete(vals, k)
		}
	}
	return out, vals, nil
}

// writeTrace writes the traced iteration's spans, the self time they give
// each layer, and every per-layer value to <workdir>/traces.
func writeTrace(workdir string, w *workloadSpec, env envRecord, traced *iterResult, layer map[string]float64) error {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Workload string             `json:"workload"`
		Env      envRecord          `json:"env"`
		Spans    []span             `json:"spans"`
		SelfS    map[string]float64 `json:"span_self_s"`
		Layer    map[string]float64 `json:"per_layer"`
	}{w.name, env, traced.Spans, selfSeconds(traced.Spans), layer}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, env.Seed))
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", strings.TrimPrefix(path, "./"))
	return os.WriteFile(path, b, 0o644)
}
