// Command perfbench is the repository's benchmark: three workloads that
// each stress a different layer, measured from outside the program through
// its public entry points, with a correctness gate on every run.
//
//	svc-acs-open    acs on clique:8, 8 in-process daemons over loopback
//	                TCP, open-loop arrivals at a fixed rate (Submit/Wait)
//	svc-aad-closed  aad on clique:8, closed loop over one client-plane
//	                connection (submitwait), CPU-saturated
//	sim-bw-byz      BW on fig1a with vertex 1 equivocating, a seeded sweep
//	                of simulator runs (repro.RunScenarios, inline engine)
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload svc-acs-open --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). The line before it is the full report: environment stamp,
// sample counts, self times and, when traced, the tracing overhead.
// --workload all runs the three in turn and ends with a merged line;
// --ladder steps the svc-acs-open rate through fixed values instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail line printed before the result.
type report struct {
	Workload   string             `json:"workload"`
	Env        envStamp           `json:"env"`
	Samples    map[string]int     `json:"samples"`
	Detail     map[string]float64 `json:"detail"`
	SelfMS     map[string]float64 `json:"selfMsPerDecision,omitempty"`
	Overhead   map[string]float64 `json:"tracingOverhead,omitempty"`
	TraceFile  string             `json:"traceFile,omitempty"`
	TraceSpans int                `json:"traceSpans,omitempty"`
	Violations []string           `json:"violations,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

// envStamp records where and how the numbers were taken.
type envStamp struct {
	NumCPU         int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	GoVersion      string   `json:"goVersion"`
	Seed           int64    `json:"seed"`
	Loopback       bool     `json:"loopbackTCP"`
	GeneratorConns int      `json:"generatorConns"`
	Workers        int      `json:"generatorWorkers"`
	Oversubscribed []string `json:"oversubscribed"`
}

func stamp(seed int64, loopback bool, conns, workers int) envStamp {
	e := envStamp{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Seed:           seed,
		Loopback:       loopback,
		GeneratorConns: conns,
		Workers:        workers,
		Oversubscribed: []string{},
	}
	for name, v := range map[string]int{"gomaxprocs": e.GOMAXPROCS, "generatorConns": conns, "generatorWorkers": workers} {
		if v > e.NumCPU {
			e.Oversubscribed = append(e.Oversubscribed, fmt.Sprintf("%s=%d > nproc=%d", name, v, e.NumCPU))
		}
	}
	return e
}

// outcome is what a workload hands back for printing.
type outcome struct {
	res result
	rep report
}

var workloadNames = []string{acsOpen.name, aadClosed.name, "sim-bw-byz"}

var workloads = map[string]func(ctx context.Context, seed int64, seconds int, trace bool) (outcome, error){
	acsOpen.name: func(ctx context.Context, seed int64, s int, tr bool) (outcome, error) {
		return runSvc(ctx, acsOpen, seed, s, tr)
	},
	aadClosed.name: func(ctx context.Context, seed int64, s int, tr bool) (outcome, error) {
		return runSvc(ctx, aadClosed, seed, s, tr)
	},
	"sim-bw-byz": runSim,
}

func main() {
	name := flag.String("workload", "", "workload: svc-acs-open, svc-aad-closed, sim-bw-byz, or all to run the three in turn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	ladder := flag.Bool("ladder", false, "step the svc-acs-open offered rate through fixed values (calibration; not a gated workload)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx := context.Background()
	if *ladder {
		out, err := runLadder(ctx, *seed, *seconds)
		os.Exit(finish("ladder", out, err))
	}
	if *name == "all" {
		// Every workload in turn; the last line merges them, metric names
		// prefixed with the workload's.
		all := result{Correct: true, Metrics: map[string]metric{}}
		code := 0
		for _, w := range workloadNames {
			out, err := workloads[w](ctx, *seed, *seconds, *trace == 1)
			if c := finish(w, out, err); c != 0 {
				code, all.Correct = c, false
			}
			all.Attempted += out.res.Attempted
			all.Failed += out.res.Failed
			for k, v := range out.res.Metrics {
				all.Metrics[w+"."+k] = v
			}
		}
		emit(all)
		os.Exit(code)
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid values are: %s, all)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	out, err := run(ctx, *seed, *seconds, *trace == 1)
	os.Exit(finish(*name, out, err))
}

// finish prints a workload's report and result lines and returns the exit
// code: 1 on an error or a failed correctness gate.
func finish(name string, out outcome, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	out.rep.Workload = name
	if len(out.rep.Violations) > 0 {
		out.res.Correct = false
	}
	emit(map[string]report{"report": out.rep})
	emit(out.res)
	if !out.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate failed:\n  %s\n", name, strings.Join(firstN(out.rep.Violations, 10), "\n  "))
		return 1
	}
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return append(xs[:n:n], fmt.Sprintf("... and %d more", len(xs)-n))
	}
	return xs
}

// passWindow is the length of one measured pass. A traced invocation runs
// an untraced pass and then a traced one, each half the window, so it
// takes no longer than an untraced invocation.
func passWindow(seconds int, trace bool) time.Duration {
	w := time.Duration(seconds) * time.Second
	if trace {
		w /= 2
	}
	return w
}

// traceFile is where a traced run writes its spans: under the build
// directory run.sh names (inside the checkout), else .bench_build.
func traceFile(workload string, seed int64) string {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	return fmt.Sprintf("%s/trace/%s-seed%d.jsonl", dir, workload, seed)
}
