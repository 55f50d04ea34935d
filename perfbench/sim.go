package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/seedmix"
)

// The sim workload: the paper's BW on fig1a (f = 1) with vertex 1
// equivocating, a seeded sweep of scenario runs on the inline engine with
// one generator goroutine per CPU, each calling repro.RunScenarios on one
// scenario at a time so every run's wall time is seen from outside.

const (
	simGraph = "fig1a"
	simK     = 10
	simEps   = 0.01
	// simProbe is the fixed set of leading sweep runs sim.steps_per_run
	// averages over. A run's step count is fixed by its seeds, so the
	// figure repeats exactly for a workload seed (on fig1a it read 31,121
	// for every seed tried).
	simProbe = 16
)

// simScenario is sweep run k of the workload seeded with seed: fresh
// inputs in [0, simK) and a fresh schedule seed per run.
func simScenario(protocol string, seed int64, k int) repro.Scenario {
	rng := rand.New(rand.NewSource(seedmix.Mix(seed, 3, int64(k))))
	inputs := make([]float64, 5)
	for i := range inputs {
		inputs[i] = float64(rng.Intn(simK*1000)) / 1000
	}
	return repro.Scenario{
		Name:     fmt.Sprintf("perfbench-bw-%d", k),
		Graph:    simGraph,
		Protocol: protocol,
		Inputs:   inputs,
		F:        1,
		K:        simK,
		Eps:      simEps,
		Seed:     rng.Int63(),
		Engine:   "inline",
		Faults:   []repro.FaultSpec{{Node: 1, Kind: "equivocate"}},
	}
}

// simRunRec is one sweep run seen from outside.
type simRunRec struct {
	k     int
	wall  time.Duration
	steps int
	err   error
}

type simPass struct {
	runs       []simRunRec
	start, end time.Time
	proc       procDelta
	heapPeak   float64
	goroutines int
	workers    int
	violations []string
}

// runSimOnce runs sweep run k and judges it.
func runSimOnce(ctx context.Context, protocol string, seed int64, k int) simRunRec {
	sc := simScenario(protocol, seed, k)
	t0 := time.Now()
	res, err := repro.RunScenarios(ctx, []repro.Scenario{sc}, 1)
	rec := simRunRec{k: k, wall: time.Since(t0)}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.steps = res[0].Steps
	if !res[0].Converged || !res[0].ValidityOK {
		rec.err = fmt.Errorf("run %d (seed %d): converged=%v validity=%v spread=%v",
			k, sc.Seed, res[0].Converged, res[0].ValidityOK, res[0].Spread)
	}
	return rec
}

// runSimPass sweeps runs k = 0, 1, 2, ... over runtime.NumCPU() workers
// until the window closes; a run started inside the window completes.
func runSimPass(ctx context.Context, protocol string, seed int64, window time.Duration) *simPass {
	p := &simPass{workers: runtime.NumCPU()}
	var next atomic.Int64
	var mu sync.Mutex
	smp := startSampler(nil)
	p0 := readProc()
	p.start = p0.at
	end := p.start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				rec := runSimOnce(ctx, protocol, seed, int(next.Add(1)-1))
				mu.Lock()
				p.runs = append(p.runs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p1 := readProc()
	p.end = p1.at
	p.heapPeak, p.goroutines, _ = smp.finish()
	p.proc = p0.to(p1)
	for _, r := range p.runs {
		if r.err != nil {
			p.violations = append(p.violations, r.err.Error())
		}
	}
	return p
}

// probeSteps averages the step counts of sweep runs 0..simProbe-1,
// running after the window any the pass did not reach.
func (p *simPass) probeSteps(ctx context.Context, protocol string, seed int64) (float64, error) {
	steps := make(map[int]int)
	for _, r := range p.runs {
		if r.k < simProbe && r.err == nil {
			steps[r.k] = r.steps
		}
	}
	var sum int
	for k := 0; k < simProbe; k++ {
		if _, ok := steps[k]; !ok {
			rec := runSimOnce(ctx, protocol, seed, k)
			if rec.err != nil {
				return 0, rec.err
			}
			steps[k] = rec.steps
		}
		sum += steps[k]
	}
	return float64(sum) / simProbe, nil
}

// simSetup is one set-up of the sim workload: materialising the scenario
// (validation, graph and inputs) plus one warm-up run.
func simSetup(ctx context.Context, seed int64) (total, materialize, first time.Duration, err error) {
	t0 := time.Now()
	sc := simScenario("bw", seed, -1)
	if _, _, err = sc.Materialize(); err != nil {
		return
	}
	materialize = time.Since(t0)
	t1 := time.Now()
	rec := runSimOnce(ctx, "bw", seed, -1)
	if rec.err != nil {
		err = rec.err
		return
	}
	first = time.Since(t1)
	total = time.Since(t0)
	return
}

func runSim(ctx context.Context, seed int64, seconds int, trace bool) (outcome, error) {
	var setupS, materializeS, firstMS []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		total, mat, first, err := simSetup(ctx, seed)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, total.Seconds())
		materializeS = append(materializeS, mat.Seconds())
		firstMS = append(firstMS, ms(first))
	}
	window := passWindow(seconds, trace)
	p := runSimPass(ctx, "bw", seed, window)
	var rep report
	rep.Env = stamp(seed, false, 0, p.workers)
	rep.Violations = p.violations
	m, samples, detail := simEndToEnd(setupS, p)
	rep.Samples, rep.Detail = samples, detail
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("BW on %s, f=1, vertex 1 equivocate, k=%v, eps=%v, inline engine; %d generator goroutines each calling repro.RunScenarios on one scenario at a time", simGraph, float64(simK), simEps, p.workers),
		"no network: the service, cluster, wire and client layers are absent and report 0")
	res := result{Correct: true, Attempted: int64(len(p.runs)), Failed: int64(detail["failed_runs"])}
	if !trace {
		res.Metrics = m
		return outcome{res: res, rep: rep}, nil
	}

	traced, err := registerTraced("bw")
	if err != nil {
		return outcome{}, err
	}
	tr := newTracer()
	active.Store(tr)
	tp := runSimPass(ctx, traced, seed, window)
	active.Store(nil)
	rep.Violations = append(rep.Violations, tp.violations...)
	res.Attempted += int64(len(tp.runs))
	res.Failed += int64(len(tp.violations))
	tm, _, _ := simEndToEnd(setupS, tp)
	rep.Overhead = overhead(m, tm)

	// The traced pass runs the same seeds as the untraced one, so every
	// run both passes completed must have taken the same number of steps.
	steps := make(map[int]int)
	for _, r := range p.runs {
		if r.err == nil {
			steps[r.k] = r.steps
		}
	}
	for _, r := range tp.runs {
		if s, ok := steps[r.k]; ok && r.err == nil && s != r.steps {
			rep.Violations = append(rep.Violations, fmt.Sprintf("run %d: traced pass took %d steps, untraced %d", r.k, r.steps, s))
		}
	}
	probe, err := p.probeSteps(ctx, "bw", seed)
	if err != nil {
		rep.Violations = append(rep.Violations, err.Error())
	}

	var wall, machine, build, adv, deliveries, sends float64
	for _, r := range tr.runs {
		wall += float64(r.wall)
		build += r.buildNS
		machine += float64(r.machineNS)
		adv += float64(r.adversaryNS)
		deliveries += float64(r.deliveries)
		sends += float64(r.sends)
	}
	runs := float64(max(len(tr.runs), 1))
	dec := float64(max(len(p.runs)-int(detail["failed_runs"]), 1))
	res.Metrics = map[string]metric{
		"loadgen.lag_ms_max":                 {0, "ms"},
		"loadgen.inflight_max":               {float64(tp.workers), "count"},
		"loadgen.self_ms_per_decision":       {0, "ms"},
		"client.overhead_ms_p50":             {0, "ms"},
		"service.decide_ms_p50":              {0, "ms"},
		"service.submit_us_p50":              {0, "us"},
		"service.active_max":                 {0, "count"},
		"service.late_frames_per_decision":   {0, "count"},
		"service.pending_shed":               {0, "count"},
		"service.bad_frames":                 {0, "count"},
		"service.refused":                    {0, "count"},
		"service.self_ms_per_decision":       {0, "ms"},
		"cluster.frames_per_decision":        {0, "count"},
		"cluster.bytes_per_decision":         {0, "B"},
		"cluster.frames_per_read":            {0, "count"},
		"cluster.waits_per_decision":         {0, "count"},
		"cluster.shed":                       {0, "count"},
		"cluster.max_depth":                  {0, "count"},
		"wire.read_ns_per_frame":             {0, "ns"},
		"wire.decode_ns_per_frame":           {0, "ns"},
		"wire.encode_ns_per_frame":           {0, "ns"},
		"wire.decode_allocs_per_frame":       {0, "count"},
		"wire.bytes_per_frame":               {0, "B"},
		"wire.self_ms_per_decision":          {0, "ms"},
		"machine.ns_per_decision":            {machine / runs, "ns"},
		"machine.deliveries_per_decision":    {deliveries / runs, "count"},
		"machine.sends_per_delivery":         {sends / max(deliveries, 1), "count"},
		"machine.adversary_share":            {adv / max(machine, 1), "ratio"},
		"sim.steps_per_run":                  {probe, "count"},
		"sim.core_ms_per_run":                {(wall - machine) / runs / 1e6, "ms"},
		"runtime.allocs_per_decision":        {float64(p.proc.mallocs) / dec, "count"},
		"runtime.gc_cpu_fraction":            {p.proc.gcFraction, "ratio"},
		"runtime.sys_cpu_share":              {p.proc.sys.Seconds() / max(p.proc.cpu().Seconds(), 1e-9), "ratio"},
		"runtime.goroutines_max":             {float64(p.goroutines), "count"},
		"setup.deploy_s":                     {median(materializeS), "s"},
		"setup.first_decision_ms":            {median(firstMS), "ms"},
		"trace.overhead_cpu_ms_per_decision": {rep.Overhead["cpu_ms_per_decision"], "ms"},
		"trace.overhead_latency_p50_ms":      {rep.Overhead["latency_p50_ms"], "ms"},
	}
	rep.SelfMS = map[string]float64{
		"machine":       (machine - adv - build) / runs / 1e6,
		"machine.build": build / runs / 1e6,
		"adversary":     adv / runs / 1e6,
		"sim":           (wall - machine) / runs / 1e6,
	}
	rep.Samples["traced_runs"] = len(tr.runs)
	rep.TraceFile = traceFile("sim-bw-byz", seed)
	if rep.TraceSpans, err = tr.write(rep.TraceFile, nil); err != nil {
		return outcome{}, err
	}
	return outcome{res: res, rep: rep}, nil
}

func simEndToEnd(setupS []float64, p *simPass) (map[string]metric, map[string]int, map[string]float64) {
	var lat []float64
	var failed int
	for _, r := range p.runs {
		if r.err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(r.wall))
	}
	span := p.end.Sub(p.start)
	dec := len(lat)
	m := map[string]metric{
		"setup_s":             {median(setupS), "s"},
		"decisions_per_s":     {float64(dec) / span.Seconds(), "1/s"},
		"latency_p50_ms":      {quantile(lat, 0.50), "ms"},
		"latency_p90_ms":      {quantile(lat, 0.90), "ms"},
		"cpu_ms_per_decision": {ms(p.proc.cpu()) / float64(max(dec, 1)), "ms"},
		"peak_heap_mb":        {p.heapPeak / (1 << 20), "MB"},
	}
	samples := map[string]int{"setup_s": len(setupS), "latency": len(lat), "decisions": dec, "attempted": len(p.runs)}
	detail := map[string]float64{
		"failed_runs":    float64(failed),
		"failed_ratio":   float64(failed) / float64(max(len(p.runs), 1)),
		"window_s":       span.Seconds(),
		"cpu_user_s":     p.proc.user.Seconds(),
		"cpu_sys_s":      p.proc.sys.Seconds(),
		"latency_p99_ms": quantile(lat, 0.99),
		"latency_max_ms": quantile(lat, 1),
	}
	return m, samples, detail
}
