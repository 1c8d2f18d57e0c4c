// Command perfbench is the repository benchmark: it runs one named workload
// through the library's public entry points, checks the simulated results,
// and prints every metric by name and unit. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh -workload fig6-websearch -seed 1 -seconds 42 -trace 0
//
// Each iteration of the workload runs in a fresh child process (the same
// binary with -worker set), so no process-wide state — the harness's warm
// fabric map, its scheduler-stats aggregate, the Go heap — carries from one
// iteration to the next, and the child's resident high-water mark is the
// iteration's peak memory. The parent starts iterations until -seconds have
// passed (and at least one per placement), then prints the medians.
//
// With -trace 1 the parent runs the same iterations under the CPU profiler,
// then one traced iteration that records a span around every call the
// benchmark makes into a layer, and prints the per-layer metrics instead.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workloadName := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 42, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for build output, temporary files and span traces")
	worker := flag.String("worker", "", "internal: run one iteration in this process (plain or traced)")
	placement := flag.Int("placement", 0, "internal: placement index of a worker iteration")
	iterDir := flag.String("dir", "", "internal: private working directory of a worker iteration")
	profile := flag.String("profile", "", "internal: write a CPU profile of a worker iteration here")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workloadName, workloadNames())
		os.Exit(2)
	}
	if *worker != "" {
		res := runWorker(w, *worker, *seed, *placement, *iterDir, *profile, *trace == 1)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := orchestrate(w, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
