// Command bench is the repository's benchmark: four long closed-loop
// workloads with five end-to-end metrics each, and a traced run that
// explains them as a ladder of per-layer rungs. Run it from the
// repository root:
//
//	go run ./bench                       every workload, tracing off
//	go run ./bench -trace 1              every workload, per-layer ladder
//	go run ./bench -workload serve_durable -seed 7 -seconds 25 -trace 0
//	go run ./bench -repeat 5             the repeatability gate
//
// The last line printed for a workload is its result as one JSON
// object. README.md in this directory describes every workload and
// metric; BENCHMARK.json at the repository root declares them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads in the order a full pass runs them.
var workloads = []string{"serve_volatile", "serve_durable", "serve_durable_single", "sweep_offline"}

// outDir, inside the checkout and git-ignored, receives the span files
// and each run's scratch directory.
const outDir = "bench/out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The metrics and their units, as BENCHMARK.json declares them: an
// untraced run prints every end-to-end metric, a traced run every
// per-layer one.
var (
	endToEndUnits = map[string]string{
		"setup_s":   "s",
		"ops_per_s": "1/s",
		"op_p50_ms": "ms",
		"op_p90_ms": "ms",
		"rss_mb":    "MiB",
	}
	perLayerUnits = map[string]string{
		"dom.step_ns":                     "ns",
		"dom.sa_step_ns":                  "ns",
		"multiobject.apply_ns":            "ns",
		"server.do_ns":                    "ns",
		"server.self_ns":                  "ns",
		"server.do_allocs_per_op":         "allocs/op",
		"server.batch_size_mean":          "count",
		"server.queue_depth_mean":         "count",
		"server.rejected_per_op":          "1/op",
		"journal.commit_us":               "us",
		"journal.stall_us":                "us",
		"journal.commits_per_op":          "1/op",
		"journal.bytes_per_op":            "B/op",
		"journal.real_fsync_us":           "us",
		"http.codec_us_per_op":            "us",
		"http.allocs_per_op":              "allocs/op",
		"http.transport_us_per_batch":     "us",
		"client.encode_us_per_batch":      "us",
		"objallocd.boundary_us_per_batch": "us",
		"objallocd.cpu_ms_per_kop":        "ms/kop",
		"recovery.replay_records_per_s":   "1/s",
		"recovery.replay_ms":              "ms",
		"tracing.sampled1pct_ratio":       "ratio",
		"tracing.full_ratio":              "ratio",
		"competitive.cell_ms":             "ms",
		"opt.solve_us":                    "us",
		"engine.serial_sweep_ms":          "ms",
		"engine.parallel_speedup":         "ratio",
		"bench.ladder_sum_ms":             "ms",
		"bench.ladder_unexplained":        "ratio",
		"bench.trace_overhead_ratio":      "ratio",
	}
)

// withUnits attaches each value's declared unit. A name missing from
// the table is a bug in this package, not an input error.
func withUnits(units map[string]string, values map[string]float64) map[string]metric {
	if len(values) != len(units) {
		panic(fmt.Sprintf("bench: %d metrics measured, %d declared", len(values), len(units)))
	}
	out := make(map[string]metric, len(values))
	for name, v := range values {
		unit, ok := units[name]
		if !ok {
			panic("bench: undeclared metric " + name)
		}
		out[name] = metric{v, unit}
	}
	return out
}

// result is what a run prints as its last line, plus what it tells the
// reader above that line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	note     string
}

// bench is the state one invocation shares across its workloads.
type bench struct {
	scratch   *scratch
	daemonBin string
	out       io.Writer
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of serve_volatile, serve_durable, serve_durable_single, sweep_offline")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the timed phase per workload")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	repeat := fs.Int("repeat", 0, "run two alternating sets of N runs per workload and gate their agreement on BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := workloads
	if *workload != "all" {
		if _, serving := shapes[*workload]; !serving && *workload != "sweep_offline" {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat("cmd/objallocd"); err != nil {
		return fmt.Errorf("run from the repository root (go run ./bench): %w", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *repeat > 0 {
		return runRepeat(ctx, out, names, *repeat, *seed, *seconds)
	}

	sc, err := newScratch(outDir)
	if err != nil {
		return err
	}
	defer sc.remove()
	b := &bench{scratch: sc, out: out}
	// Built up front, outside every timed and set-up phase; only an
	// untraced sweep_offline needs no daemon.
	if *trace != 0 || *workload != "sweep_offline" {
		if b.daemonBin, err = buildDaemon(sc.dir); err != nil {
			return err
		}
	}
	env := readEnvironment(sc)
	env.DaemonArgs = daemonFlags("<run>", "<journal>")
	envJSON, _ := json.Marshal(env) // a struct of strings and numbers cannot fail
	fmt.Fprintf(out, "# environment %s\n", envJSON)
	if env.Load1 > 0.5 {
		fmt.Fprintf(out, "# WARNING: 1-minute load average is %.2f (> 0.5): the box is not idle, expect noisier numbers\n", env.Load1)
	}

	dur := time.Duration(*seconds * float64(time.Second))
	for _, name := range names {
		var res result
		switch {
		case *trace != 0:
			res, err = b.runTraced(ctx, name, *seed, dur)
		case name == "sweep_offline":
			res, err = b.runSweep(ctx, *seed, dur)
		default:
			res, err = b.runServe(ctx, name, *seed, dur)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%s: interrupted", name)
		}
		if err := b.print(name, *seed, *trace, res); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// print writes the human-readable report and, last, the result line.
func (b *bench) print(name string, seed int64, trace int, res result) error {
	fmt.Fprintf(b.out, "# workload %s seed %d trace %d: %s\n", name, seed, trace, res.note)
	for _, p := range res.problems {
		fmt.Fprintf(b.out, "# FAILED CHECK: %s\n", p)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b.out, "#   %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res) // fails on a NaN or infinite value
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.out, "%s\n", line)
	return err
}

// tracePath is where a traced run writes its spans.
func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}
