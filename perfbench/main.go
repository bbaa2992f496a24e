// Command perfbench is the repository's end-to-end benchmark. It drives one
// seeded workload through the program's public entry points from a single
// process, checks the outputs, and prints a human-readable report followed by
// one JSON result line:
//
//	bash perfbench/run.sh --workload market-inproc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, measured by timing calls into each layer from
// this package and by reading the counters the program already exports. See
// README.md for the glossary and the reasons behind each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Every workload defines every one of them (README.md says how).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"replay_s", "s"},
	{"round_p50_s", "s"},
	{"round_p90_s", "s"},
	{"ok_frac", "frac"},
	{"max_rho", "ratio"},
	{"jct_mean_min", "min"},
	{"gpu_time_min", "gpu-min"},
	{"granted_frac", "frac"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics printed by every traced run. A layer
// a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.self_s", "s"},
	{"sched.allocate_s", "s"},
	{"sched.allocate_calls", "count"},
	{"core.probe_s", "s"},
	{"core.bid_s", "s"},
	{"core.solve_s", "s"},
	{"core.leftover_s", "s"},
	{"core.participants_per_round", "count"},
	{"core.winners_per_round", "count"},
	{"core.auction_gpu_frac", "frac"},
	{"solver.solves_per_round", "count"},
	{"solver.pair_moves_per_round", "count"},
	{"agent.rho_s", "s"},
	{"agent.bid_s", "s"},
	{"agent.alloc_s", "s"},
	{"agent.rho_calls", "count"},
	{"agent.bid_calls", "count"},
	{"agent.alloc_calls", "count"},
	{"rpc.probe_wire_s", "s"},
	{"rpc.bid_wire_s", "s"},
	{"rpc.deliver_s", "s"},
	{"rpc.reclaim_s", "s"},
	{"rpc.grant_s", "s"},
	{"rpc.conns_per_round", "count"},
	{"rpc.calls_per_conn", "count"},
	{"rpc.client_errors", "count"},
	{"shard.critical_s", "s"},
	{"shard.cpu_sum_s", "s"},
	{"shard.fanout_s", "s"},
	{"shard.reconcile_s", "s"},
	{"shard.reconcile_gpus_per_round", "count"},
	{"shard.imbalance", "ratio"},
	{"go.alloc_mb_per_round", "MB"},
	{"go.gc_cycles_per_round", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"unaccounted_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

// config is one run's command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// result is what a workload run measured and checked.
type result struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted and failed count the run's operations: RPCs on serve-http,
	// rounds elsewhere, replays on replay-contended — plus one per output
	// check, so a failed check or a digest mismatch is a failed operation.
	attempted, failed int
	// checksFailed counts failed output checks; any makes the run incorrect.
	checksFailed int
	problems     []string
	report       []string
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// check records one output check; a failed check is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checksFailed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*result, error){
	"replay-contended": runReplay,
	"serve-http":       runServeHTTP,
	"market-inproc":    runMarket,
	"sharded-inproc":   runSharded,
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	runW, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}

	start := time.Now()
	res, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.e2e["rss_peak_mb"] = rssPeakMB()
	res.e2e["ok_frac"] = 1 - ratio(float64(res.failed), float64(res.attempted))

	defs, values := endToEnd, res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing or not finite (%v)\n", *name, d.name, v)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v wall=%.1fs\n", *name, cfg.seed, cfg.seconds, cfg.trace, time.Since(start).Seconds())
	for _, line := range res.report {
		fmt.Println("  " + line)
	}
	for _, p := range res.problems {
		fmt.Println("  FAILED CHECK: " + p)
	}
	printTable("end-to-end", endToEnd, res.e2e)
	if cfg.trace {
		printTable("per-layer", perLayer, res.layer)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.checksFailed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func printTable(title string, defs []metricDef, values map[string]float64) {
	fmt.Printf("  %s:\n", title)
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("    %-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
