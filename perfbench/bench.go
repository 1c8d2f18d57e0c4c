package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds a run's worker processes together: the run must end
// within 180 s.
const childTimeout = 150 * time.Second

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// orchestrate runs one workload: worker iterations for the measured
// seconds, then (traced) one traced iteration, and prints the result.
func orchestrate(w *workloadSpec, seed int64, seconds float64, traced bool, workdir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runsDir := filepath.Join(workdir, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(runsDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	env := environment(seed, traced)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	deadline := time.Now().Add(childTimeout)
	spawn := func(mode string, i, placement int, profile bool) *iterResult {
		dir := filepath.Join(runDir, fmt.Sprintf("iter%03d", i))
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-worker", mode, "-placement", strconv.Itoa(placement), "-dir", dir}
		if traced {
			args = append(args, "-trace", "1")
		}
		if profile {
			args = append(args, "-profile", filepath.Join(runDir, fmt.Sprintf("cpu%03d.pprof", i)))
		}
		res, err := runChild(exe, dir, args, deadline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", w.name, i, err)
			return &iterResult{Placement: placement, Ops: 1, Failures: []string{err.Error()}, Layer: map[string]float64{}}
		}
		os.RemoveAll(dir)
		return res
	}

	// Measured iterations: at least one per placement and one after the
	// warm-up, then more while another median-length iteration still fits
	// in the measured seconds and before the children's deadline.
	start := time.Now()
	var plain []*iterResult
	var took []float64 // each iteration's seconds, process start to exit
	for i := 0; ; i++ {
		if i >= w.placements && i >= 2 {
			left := min(seconds-time.Since(start).Seconds(), time.Until(deadline).Seconds())
			if median(took) > left {
				break
			}
		}
		t0 := time.Now()
		r := spawn("plain", i, i%w.placements, traced)
		took = append(took, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d placement %d: wall %.3f s (setup %.3f s, simulate %.3f s), stolen %.1f%%, median probe %.2f ms, peak RSS %.1f MB\n",
			w.name, i, r.Placement, r.WallS, r.SetupS, r.SimS, 100*r.StealFrac, 1e3*r.ProbeS, r.PeakRSSMB)
		plain = append(plain, r)
	}
	var tracedRes *iterResult
	if traced {
		tracedRes = spawn("traced", len(plain), 0, false)
	}

	out := result{Metrics: map[string]metric{}}
	var failures []string
	for _, r := range append(plain, tracedRes) {
		if r == nil {
			continue
		}
		out.Attempted += r.Ops
		out.Failed += len(r.Failures)
		failures = append(failures, r.Failures...)
	}
	// Determinism: a placement simulated again must repeat its digests, and
	// the traced iteration must reproduce the untraced placement 0.
	for i := w.placements; i < len(plain); i++ {
		if msg := diffDigests(plain[i-w.placements], plain[i]); msg != "" {
			out.Failed++
			failures = append(failures, fmt.Sprintf("iteration %d repeats placement %d: %s", i, i%w.placements, msg))
		}
	}
	if tracedRes != nil {
		if msg := diffDigests(plain[0], tracedRes); msg != "" {
			out.Failed++
			failures = append(failures, "traced iteration: "+msg)
		}
	}
	printDigests(w, plain)

	if traced {
		layer, all, err := layerMetrics(plain, tracedRes, runDir)
		if err != nil {
			return err
		}
		out.Metrics = layer
		if err := writeTrace(workdir, w, env, tracedRes, all); err != nil {
			return err
		}
	} else {
		out.Metrics = endToEnd(w, plain)
		raw := endToEnd(w, unscaled(plain))
		fmt.Printf("unscaled: wall_s %.6g setup_s %.6g pkts_per_s %.6g (median stolen share %.3f, median probe %.2f ms)\n",
			raw["wall_s"].Value, raw["setup_s"].Value, raw["pkts_per_s"].Value,
			medianOf(plain, func(r *iterResult) float64 { return r.StealFrac }), 1e3*medianOf(plain, func(r *iterResult) float64 { return r.ProbeS }))
	}
	// An op can fail more than one check; count it once.
	out.Failed = min(out.Failed, out.Attempted)
	out.Correct = out.Failed == 0
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", firstLine(f))
	}
	for _, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("no successful iteration to measure (%d failures)", out.Failed)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one worker process and decodes its result.
func runChild(exe, dir string, args []string, deadline time.Time) (*iterResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	// A worker must not outlive the run, even when the run is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	var res iterResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("worker output: %w", err)
	}
	return &res, nil
}

// diffDigests compares the digests of two iterations of one placement.
func diffDigests(want, got *iterResult) string {
	ref := map[string]string{}
	for _, d := range want.Digests {
		ref[d.Run] = d.Digest
	}
	var diffs []string
	for _, d := range got.Digests {
		if r, ok := ref[d.Run]; ok && r != d.Digest {
			diffs = append(diffs, fmt.Sprintf("%s digest %s != %s", d.Run, d.Digest, r))
		}
	}
	return strings.Join(diffs, "; ")
}

// printDigests prints each placement's run digests, and one digest over all
// of them, for comparing two versions of the code on the same seed.
func printDigests(w *workloadSpec, plain []*iterResult) {
	h := fnv.New64a()
	for i := 0; i < w.placements && i < len(plain); i++ {
		for _, d := range plain[i].Digests {
			fmt.Printf("digest %s placement=%d %s %s\n", w.name, i, d.Run, d.Digest)
			h.Write([]byte(d.Digest))
		}
	}
	fmt.Printf("digest %s all %016x\n", w.name, h.Sum64())
}

// endToEnd computes the end-to-end metrics from the measured iterations:
// host-time figures are medians over the iterations after the first, which
// warms the machine up (on an idle virtual machine the first process runs
// measurably slower), of host seconds with the stolen share taken out and
// scaled to the reference memory speed (machine.go). Simulated-time figures
// pool the first iteration of every placement.
func endToEnd(w *workloadSpec, plain []*iterResult) map[string]metric {
	var wall, setup, pps, rss []float64
	var fcts []float64
	launched, completed := 0, 0
	for i, r := range plain {
		if !measured(plain, i) {
			continue
		}
		if hostTimed(plain, i) {
			s := 1 - r.StealFrac
			if r.ProbeS > 0 {
				s *= math.Pow(refProbeS/r.ProbeS, memShare)
			}
			wall = append(wall, r.WallS*s)
			setup = append(setup, r.SetupS*s)
			pps = append(pps, float64(r.Delivered)/(r.SimS*s))
			rss = append(rss, r.PeakRSSMB)
		}
		if i < w.placements {
			fcts = append(fcts, r.ShortFCTUs...)
			launched += r.UCMPLaunched
			completed += r.UCMPCompleted
		}
	}
	sort.Float64s(fcts)
	return map[string]metric{
		"wall_s":           {median(wall), "s"},
		"setup_s":          {median(setup), "s"},
		"pkts_per_s":       {median(pps), "1/s"},
		"peak_rss_mb":      {median(rss), "MB"},
		"fct_p50_short_us": {percentile(fcts, 0.50), "us"},
		"fct_p90_short_us": {percentile(fcts, 0.90), "us"},
		"completed_frac":   {float64(completed) / float64(launched), "frac"},
	}
}

// measured reports whether iteration i ran without failures.
func measured(plain []*iterResult, i int) bool {
	return len(plain[i].Failures) == 0 && plain[i].SimS > 0
}

// hostTimed reports whether endToEnd takes host time from iteration i.
func hostTimed(plain []*iterResult, i int) bool {
	return measured(plain, i) && (i > 0 || len(plain) == 1)
}

// medianOf is the median of f over the iterations endToEnd takes host
// time from.
func medianOf(plain []*iterResult, f func(*iterResult) float64) float64 {
	var v []float64
	for i, r := range plain {
		if hostTimed(plain, i) {
			v = append(v, f(r))
		}
	}
	return median(v)
}

// unscaled copies the iterations without their machine records, for
// printing the raw host-time medians.
func unscaled(plain []*iterResult) []*iterResult {
	out := make([]*iterResult, len(plain))
	for i, r := range plain {
		c := *r
		c.StealFrac, c.ProbeS = 0, 0
		out[i] = &c
	}
	return out
}

// median returns the median, or NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile of sorted values, or NaN.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// envRecord says where and on what a run was measured.
type envRecord struct {
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"` // CPUs this process may run on, as nproc prints
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUQuota   string `json:"cpu_quota"` // cgroup v2 cpu.max, "" when unknown
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(seed int64, traced bool) envRecord {
	e := envRecord{
		Seed: seed, Trace: traced,
		NProc: runtime.NumCPU(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		e.CPUQuota = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			e.Commit = rev
			if dirty {
				e.Commit += "+dirty"
			}
		}
	}
	return e
}
