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
	"repro/internal/service"
)

// svcWorkload is one service-tier workload: a protocol on the clique:8
// fleet, driven open-loop at a fixed rate through Daemon.Submit/Wait or
// closed-loop through client-plane connections (see closedConns).
type svcWorkload struct {
	name     string
	protocol string
	open     bool
	rate     float64 // arrivals per second (open loop)
}

// Grace bounds how long after the window a request may still decide
// before it counts as failed.
const grace = 5 * time.Second

// svcScenario builds the fleet's shared scenario from the workload seed:
// clique:8, f = 1, no faulty vertex, inputs drawn in [0, k) with an
// a-priori bound k fixed, so the round count log2(k/ε) — and with it the
// work per aad instance — does not depend on the seed. The scenario seed,
// from which the service derives every instance's coin and schedule
// seeds, is the committed service example's: the work an instance id
// costs is then the same in every run, and runs differ in their inputs
// and in which daemon each request goes to.
func svcScenario(protocol string, seed int64) repro.Scenario {
	rng := rand.New(rand.NewSource(seedmix.Mix(seed, 1)))
	inputs := make([]float64, 8)
	for i := range inputs {
		inputs[i] = float64(rng.Intn(4000)) / 1000
	}
	return repro.Scenario{
		Name:     "perfbench-clique8",
		Graph:    "clique:8",
		Protocol: protocol,
		Inputs:   inputs,
		F:        1,
		K:        4,
		Eps:      0.1,
		Seed:     11,
	}
}

// request is one attempted submit → decide.
type request struct {
	daemon    int
	due, sent time.Time // open loop: when it was scheduled, when Submit began
	submit    time.Duration
	done      time.Time
	latency   time.Duration // due (or send) → decision at the client
	inst      uint64
	dec       service.Decision
	err       error
}

// passResult is one measurement window over a running fleet.
type passResult struct {
	reqs       []*request
	open       bool      // driven open-loop
	start, end time.Time // window start, last completion
	proc       procDelta
	heapPeak   float64
	goroutines int
	activeMax  int64
	lagMax     time.Duration
	inflight   int64
	before     fleetStat
	after      fleetStat
	violations []string
	conns      int
}

func (p *passResult) decided() []*request {
	var out []*request
	for _, r := range p.reqs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// closedConns is the closed loop's client-plane connection count. One
// in-flight aad instance already keeps both CPUs of the reference host
// busy (8 daemons work on it at once, ~1.93 CPUs); a second connection
// (nproc) adds ~15% throughput but queues the two instances behind each
// other, which doubled the run-to-run spread of latency_p50_ms in
// interleaved runs (IQR/median 0.112 against 0.051).
const closedConns = 1

// The traced pass copies out every frame of its first few instances for
// the wire replay: about 3.7k small frames per acs instance, about 9.6k
// larger ones per aad instance.
const (
	captureOpen   = 16
	captureClosed = 8
)

// runPass drives one window of load at protocol, waits for quiescence and
// audits every decision. A traced pass also samples the in-flight instance
// count and copies out the frames of its first instances.
func runPass(ctx context.Context, fl *fleet, w svcWorkload, protocol string, seed int64, window time.Duration, traced bool) (*passResult, error) {
	rng := rand.New(rand.NewSource(seed))
	n := len(fl.daemons)
	p := &passResult{before: fl.stat(), open: w.open}
	var inflight, inflightMax atomic.Int64
	noteInflight := func(d int64) {
		v := inflight.Add(d)
		for {
			m := inflightMax.Load()
			if v <= m || inflightMax.CompareAndSwap(m, v) {
				return
			}
		}
	}

	// The instance ids a request will get are predictable: daemon d hands
	// out seq<<10 | d with seq counting its submits. The traced pass copies
	// the frames of the first capture requests' instances.
	var plan []int
	if w.open {
		plan = make([]int, int(w.rate*window.Seconds()))
		for k := range plan {
			plan[k] = rng.Intn(n)
		}
	} else {
		plan = rng.Perm(n)[:closedConns]
	}
	if traced {
		capture := captureOpen
		if !w.open {
			capture = captureClosed
		}
		set := make(map[uint64]bool)
		next := make([]int64, n)
		for d := range next {
			next[d] = p.before.snaps[d].Submitted
		}
		for k := 0; len(set) < capture && k < 4*capture; k++ {
			d := plan[k%len(plan)]
			next[d]++
			set[uint64(next[d])<<10|uint64(d)] = true
		}
		fl.pc.capture.Store(&set)
	}

	var gauge func() int64
	if traced {
		gauge = fl.active
	}
	smp := startSampler(gauge)
	p0 := readProc()
	p.start = p0.at
	var err error
	if w.open {
		p.openLoop(ctx, fl, protocol, plan, w.rate, noteInflight)
	} else {
		err = p.closedLoop(ctx, fl, protocol, plan, window, noteInflight)
	}
	p1 := readProc()
	p.heapPeak, p.goroutines, p.activeMax = smp.finish()
	if err != nil {
		return nil, err
	}
	p.inflight = inflightMax.Load()
	for _, r := range p.reqs {
		if r.err == nil && r.done.After(p.end) {
			p.end = r.done
		}
	}
	if p.end.IsZero() {
		p.end = p1.at
	}
	p.proc = p0.to(p1)

	after, qerr := fl.quiesce(grace + 2*fleetLinger)
	fl.pc.capture.Store(nil)
	p.after = after
	if qerr != nil {
		p.violations = append(p.violations, qerr.Error())
		return p, nil
	}
	p.violations = append(p.violations, p.auditDecisions(ctx, fl, protocol)...)
	return p, nil
}

// openLoop submits plan[k] at t0 + k/rate whatever the fleet is doing, and
// times each request from its due time.
func (p *passResult) openLoop(ctx context.Context, fl *fleet, protocol string, plan []int, rate float64, noteInflight func(int64)) {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	waitCtx, cancel := context.WithDeadline(ctx, t0.Add(time.Duration(len(plan))*interval+grace))
	defer cancel()
	var wg sync.WaitGroup
	p.reqs = make([]*request, len(plan))
	for k, d := range plan {
		r := &request{daemon: d, due: t0.Add(time.Duration(k) * interval)}
		p.reqs[k] = r
		if wait := time.Until(r.due); wait > 0 {
			time.Sleep(wait)
		}
		r.sent = time.Now()
		p.lagMax = max(p.lagMax, r.sent.Sub(r.due))
		r.inst, r.err = fl.daemons[d].Submit(protocol)
		r.submit = time.Since(r.sent)
		if r.err != nil {
			r.done = time.Now()
			continue
		}
		noteInflight(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer noteInflight(-1)
			r.dec, r.err = fl.daemons[r.daemon].Wait(waitCtx, r.inst)
			r.done = time.Now()
			r.latency = r.done.Sub(r.due)
		}()
	}
	wg.Wait()
}

// closedLoop runs one client-plane connection per entry of daemons, each
// issuing submitwait back to back until the window closes.
func (p *passResult) closedLoop(ctx context.Context, fl *fleet, protocol string, daemons []int, window time.Duration, noteInflight func(int64)) error {
	clients := make([]*service.Client, len(daemons))
	for i, d := range daemons {
		c, err := service.Dial(fl.clientAddrs[d], 0)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return fmt.Errorf("dial client plane: %w", err)
		}
		clients[i] = c
	}
	p.conns = len(clients)
	end := time.Now().Add(window)
	// A round trip still open at window end + grace is cut by closing its
	// connection; the request then counts as failed.
	cut := time.AfterFunc(window+grace, func() {
		for _, c := range clients {
			c.Close()
		}
	})
	defer cut.Stop()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, d := range daemons {
		wg.Add(1)
		go func(c *service.Client, d int) {
			defer wg.Done()
			defer c.Close()
			for time.Now().Before(end) && ctx.Err() == nil {
				r := &request{daemon: d, sent: time.Now()}
				r.due = r.sent
				noteInflight(1)
				r.dec, r.err = c.SubmitWait(protocol)
				noteInflight(-1)
				r.done = time.Now()
				r.latency = r.done.Sub(r.sent)
				r.inst = r.dec.Inst
				mu.Lock()
				p.reqs = append(p.reqs, r)
				mu.Unlock()
				if r.err != nil {
					return
				}
			}
		}(clients[i], d)
	}
	wg.Wait()
	return nil
}

// auditDecisions fetches every pass instance's decision from every
// daemon (retired instances answer from the ledger) and runs the audit.
func (p *passResult) auditDecisions(ctx context.Context, fl *fleet, protocol string) []string {
	fac, err := repro.NewInstanceFactoryFor(fl.sc, protocol)
	if err != nil {
		return []string{err.Error()}
	}
	spec := auditSpec{protocol: baseProtocol(protocol), n: fac.Graph().N(), f: fl.sc.F, eps: fac.Eps(), inputs: fac.Inputs()}
	fac.Honest().ForEach(func(v int) bool { spec.honest = append(spec.honest, v); return true })
	actx, cancel := context.WithTimeout(ctx, grace)
	defer cancel()
	decisions := make(map[uint64]map[int]service.Decision)
	for _, r := range p.reqs {
		if r.inst == 0 {
			continue
		}
		byVertex := make(map[int]service.Decision)
		for _, v := range spec.honest {
			dec, err := fl.daemons[v].Wait(actx, r.inst)
			if err == nil {
				byVertex[v] = dec
			}
		}
		decisions[r.inst] = byVertex
	}
	return audit(spec, decisions)
}

// The two service workloads. The open-loop rate sits well below the
// fleet's closed-loop ceiling on the reference 2-CPU host; see the rate
// ladder recorded in BENCHMARK.json.
var (
	acsOpen   = svcWorkload{name: "svc-acs-open", protocol: "acs", open: true, rate: 20}
	aadClosed = svcWorkload{name: "svc-aad-closed", protocol: "aad"}
)

const (
	// setupReps set-ups are made per run; setup_s is their median. Each
	// starts after a forced GC, outside the timing, so none inherits the
	// previous one's garbage and every one sees the heap a fresh process
	// would.
	setupReps = 21
	warmup    = time.Second
)

type setupStat struct{ total, deploy, first time.Duration }

// setupFleet builds a fleet and waits for its first decision.
func setupFleet(ctx context.Context, sc repro.Scenario, protocols []string, clients bool, protocol string) (*fleet, setupStat, error) {
	t0 := time.Now()
	fl, err := startFleet(ctx, sc, protocols, clients)
	if err != nil {
		return nil, setupStat{}, err
	}
	st := setupStat{deploy: time.Since(t0)}
	t1 := time.Now()
	wctx, cancel := context.WithTimeout(ctx, grace)
	defer cancel()
	inst, err := fl.daemons[0].Submit(protocol)
	if err == nil {
		_, err = fl.daemons[0].Wait(wctx, inst)
	}
	if err != nil {
		fl.close()
		return nil, setupStat{}, fmt.Errorf("first decision: %w", err)
	}
	st.first = time.Since(t1)
	st.total = time.Since(t0)
	return fl, st, nil
}

func runSvc(ctx context.Context, w svcWorkload, seed int64, seconds int, trace bool) (outcome, error) {
	protocols := []string{w.protocol}
	var traced string
	if trace {
		var err error
		if traced, err = registerTraced(w.protocol); err != nil {
			return outcome{}, err
		}
		protocols = append(protocols, traced)
	}
	sc := svcScenario(w.protocol, seed)
	var fl *fleet
	var setups []setupStat
	for i := 0; i < setupReps; i++ {
		if fl != nil {
			fl.close()
		}
		runtime.GC()
		f, st, err := setupFleet(ctx, sc, protocols, !w.open, w.protocol)
		if err != nil {
			return outcome{}, err
		}
		fl = f
		setups = append(setups, st)
	}
	defer fl.close()

	window := passWindow(seconds, trace)
	warm, err := runPass(ctx, fl, w, w.protocol, seedmix.Mix(seed, 10), warmup, false)
	if err != nil {
		return outcome{}, err
	}
	p, err := runPass(ctx, fl, w, w.protocol, seedmix.Mix(seed, 11), window, false)
	if err != nil {
		return outcome{}, err
	}
	conns := p.conns
	var rep report
	rep.Env = stamp(seed, true, conns, 0)
	rep.Violations = append(warm.violations, p.violations...)
	res := result{Correct: true, Attempted: int64(len(p.reqs)), Failed: int64(len(p.reqs) - len(p.decided()))}
	m, samples, detail := svcEndToEnd(setups, p)
	rep.Samples, rep.Detail = samples, detail
	if w.open {
		rep.Notes = append(rep.Notes, fmt.Sprintf("open loop: %.0f arrivals/s, daemon per request drawn from the seed, Submit/Wait in process (no client-plane connection); latency from each request's due time", w.rate))
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("closed loop: %d client-plane connections, one per distinct daemon drawn from the seed, submitwait back to back", conns))
	}
	rep.Notes = append(rep.Notes, "cpu_ms_per_decision is the whole process's user+sys CPU: the generator shares the process, and its own per-request work is one Submit and one Wait call (open loop) or one JSON-lines round trip on each side of the client plane (closed loop)")
	if !trace {
		res.Metrics = m
		return outcome{res: res, rep: rep}, nil
	}

	tr := newTracer()
	active.Store(tr)
	tp, err := runPass(ctx, fl, w, traced, seedmix.Mix(seed, 12), window, true)
	active.Store(nil)
	if err != nil {
		return outcome{}, err
	}
	rep.Violations = append(rep.Violations, tp.violations...)
	res.Attempted += int64(len(tp.reqs))
	res.Failed += int64(len(tp.reqs) - len(tp.decided()))
	tm, _, _ := svcEndToEnd(setups, tp)
	rep.Overhead = overhead(m, tm)

	cost, err := replayWire(tr, fl.pc.takeCaptured())
	if err != nil {
		return outcome{}, err
	}
	instOf := make(map[int64]uint64)
	for _, r := range tp.reqs {
		if r.inst != 0 {
			instOf[seedmix.Mix(sc.Seed, int64(r.inst))] = r.inst
		}
	}
	rep.TraceFile = traceFile(w.name, seed)
	tp.addRequestSpans(tr, w.open)
	if rep.TraceSpans, err = tr.write(rep.TraceFile, instOf); err != nil {
		return outcome{}, err
	}
	var matched int
	res.Metrics, rep.SelfMS, matched = svcPerLayer(w, setups, p, tp, tr.machineTotals(), cost, sc.Seed)
	rep.Samples["traced_decisions"] = len(tp.decided())
	rep.Samples["service.self_matched"] = matched
	res.Metrics["trace.overhead_cpu_ms_per_decision"] = metric{rep.Overhead["cpu_ms_per_decision"], "ms"}
	res.Metrics["trace.overhead_latency_p50_ms"] = metric{rep.Overhead["latency_p50_ms"], "ms"}
	rep.Samples["wire.frames_replayed"] = cost.frames
	return outcome{res: res, rep: rep}, nil
}

// addRequestSpans records the generator-side spans of every request:
// loadgen.request (due → decision) with service.submit and service.wait
// children (open loop), or client.roundtrip (closed loop); each carries a
// service.decide child of the decision's reported elapsed time, ending at
// the client's receipt.
func (p *passResult) addRequestSpans(t *tracer, open bool) {
	at := func(x time.Time) int64 { return int64(x.Sub(t.epoch)) }
	for _, r := range p.reqs {
		if r.err != nil {
			continue
		}
		root := span{ID: t.nextID(), Name: "loadgen.request", Start: at(r.due), End: at(r.done), Inst: r.inst, Vertex: r.daemon}
		t.add(root)
		if open {
			t.add(span{ID: t.nextID(), Parent: root.ID, Name: "service.submit", Start: at(r.sent), End: at(r.sent) + int64(r.submit), Inst: r.inst, Vertex: r.daemon})
			t.add(span{ID: t.nextID(), Parent: root.ID, Name: "service.wait", Start: at(r.sent) + int64(r.submit), End: at(r.done), Inst: r.inst, Vertex: r.daemon})
			t.add(span{ID: t.nextID(), Parent: root.ID, Name: "service.decide", Start: at(r.sent), End: at(r.sent) + int64(r.dec.ElapsedMS*1e6), Inst: r.inst, Vertex: r.daemon})
			continue
		}
		rt := span{ID: t.nextID(), Parent: root.ID, Name: "client.roundtrip", Start: at(r.sent), End: at(r.done), Inst: r.inst, Vertex: r.daemon}
		t.add(rt)
		t.add(span{ID: t.nextID(), Parent: rt.ID, Name: "service.decide", Start: at(r.done) - int64(r.dec.ElapsedMS*1e6), End: at(r.done), Inst: r.inst, Vertex: r.daemon})
	}
}

// svcEndToEnd computes the end-to-end metrics of one pass.
func svcEndToEnd(setups []setupStat, p *passResult) (map[string]metric, map[string]int, map[string]float64) {
	dec := p.decided()
	lat := make([]float64, len(dec))
	for i, r := range dec {
		lat[i] = ms(r.latency)
	}
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.total.Seconds())
	}
	// The open loop's p90 is a block median (see blockQuantile): there a
	// stall delays every request due while it lasts, where in the closed
	// loop it delays the one request in flight. Taken before quantile
	// sorts lat.
	p90 := blockQuantile(lat, 0.90)
	pooledP90 := quantile(lat, 0.90)
	if !p.open {
		p90 = pooledP90
	}
	span := p.end.Sub(p.start)
	m := map[string]metric{
		"setup_s":             {median(setupS), "s"},
		"decisions_per_s":     {float64(len(dec)) / span.Seconds(), "1/s"},
		"latency_p50_ms":      {quantile(lat, 0.50), "ms"},
		"latency_p90_ms":      {p90, "ms"},
		"cpu_ms_per_decision": {ms(p.proc.cpu()) / float64(max(len(dec), 1)), "ms"},
		"peak_heap_mb":        {p.heapPeak / (1 << 20), "MB"},
	}
	samples := map[string]int{
		"setup_s":         len(setups),
		"latency":         len(lat),
		"decisions":       len(dec),
		"attempted":       len(p.reqs),
		"heap_samples_ms": int(sampleEvery / time.Millisecond),
	}
	if p.open {
		samples["latency_p90_blocks"] = latencyBlocks
	}
	detail := map[string]float64{
		"failed_ratio":          float64(len(p.reqs)-len(dec)) / float64(max(len(p.reqs), 1)),
		"window_s":              span.Seconds(),
		"cpu_user_s":            p.proc.user.Seconds(),
		"cpu_sys_s":             p.proc.sys.Seconds(),
		"latency_pooled_p90_ms": pooledP90,
		"latency_p99_ms":        quantile(lat, 0.99),
		"latency_max_ms":        quantile(lat, 1),
	}
	return m, samples, detail
}

// overhead is traced minus untraced, per end-to-end metric.
func overhead(untraced, traced map[string]metric) map[string]float64 {
	o := make(map[string]float64)
	for k, v := range untraced {
		if t, ok := traced[k]; ok && k != "setup_s" {
			o[k] = t.Value - v.Value
		}
	}
	return o
}

// svcPerLayer computes the per-layer ledger: fabric counters from the
// untraced pass p (tracing does not touch them), machine and self-time
// figures from the traced pass tp.
func svcPerLayer(w svcWorkload, setups []setupStat, p, tp *passResult, mt machineTotals, cost wireCost, baseSeed int64) (map[string]metric, map[string]float64, int) {
	dec := float64(max(len(p.decided()), 1))
	inst := float64(max(p.after.submitted-p.before.submitted, 1))
	tinst := float64(max(tp.after.submitted-tp.before.submitted, 1))
	var overheadMS, decideMS, submitUS, lagMS, svcSelf []float64
	for _, r := range tp.decided() {
		decideMS = append(decideMS, r.dec.ElapsedMS)
		if w.open {
			submitUS = append(submitUS, float64(r.submit)/float64(time.Microsecond))
			lagMS = append(lagMS, ms(r.sent.Sub(r.due)))
		} else {
			overheadMS = append(overheadMS, ms(r.latency)-r.dec.ElapsedMS)
		}
		// The submitting vertex's machine time before it decided, found by
		// the instance seed the service derives from the scenario seed.
		key := [2]int64{seedmix.Mix(baseSeed, int64(r.inst)), int64(r.daemon)}
		if ns, ok := mt.toDecide[key]; ok {
			svcSelf = append(svcSelf, r.dec.ElapsedMS-float64(ns)/1e6)
		}
	}
	var deploy, first []float64
	for _, s := range setups {
		deploy = append(deploy, s.deploy.Seconds())
		first = append(first, ms(s.first))
	}
	a, b := p.before, p.after
	m := map[string]metric{
		"loadgen.lag_ms_max":               {ms(tp.lagMax), "ms"},
		"loadgen.inflight_max":             {float64(tp.inflight), "count"},
		"client.overhead_ms_p50":           {quantile(overheadMS, 0.5), "ms"},
		"service.decide_ms_p50":            {quantile(decideMS, 0.5), "ms"},
		"service.submit_us_p50":            {quantile(submitUS, 0.5), "us"},
		"service.active_max":               {float64(tp.activeMax), "count"},
		"service.late_frames_per_decision": {float64(b.late-a.late) / dec, "count"},
		"service.pending_shed":             {float64(b.pendingShed - a.pendingShed), "count"},
		"service.bad_frames":               {float64(b.badFrames - a.badFrames), "count"},
		"service.refused":                  {float64(b.refused - a.refused), "count"},
		"service.self_ms_per_decision":     {mean(svcSelf), "ms"},
		"loadgen.self_ms_per_decision":     {mean(lagMS), "ms"},
		"cluster.frames_per_decision":      {float64(b.enqueued-a.enqueued) / inst, "count"},
		"cluster.bytes_per_decision":       {float64(b.bytes-a.bytes) / inst, "B"},
		"cluster.frames_per_read":          {float64(b.frames-a.frames) / float64(max(b.reads-a.reads, 1)), "count"},
		"cluster.waits_per_decision":       {float64(b.waits-a.waits) / dec, "count"},
		"cluster.shed":                     {float64(b.shed - a.shed), "count"},
		"cluster.max_depth":                {float64(b.maxDepth), "count"},
		"wire.read_ns_per_frame":           {cost.readNS, "ns"},
		"wire.decode_ns_per_frame":         {cost.decodeNS, "ns"},
		"wire.encode_ns_per_frame":         {cost.encodeNS, "ns"},
		"wire.decode_allocs_per_frame":     {cost.decodeAllocs, "count"},
		"wire.bytes_per_frame":             {cost.bytes, "B"},
		"wire.self_ms_per_decision":        {(cost.readNS + cost.decodeNS + cost.encodeNS) * float64(b.enqueued-a.enqueued) / inst / 1e6, "ms"},
		"machine.ns_per_decision":          {float64(mt.ns) / tinst, "ns"},
		"machine.deliveries_per_decision":  {float64(mt.calls) / tinst, "count"},
		"machine.sends_per_delivery":       {float64(mt.sends) / float64(max(mt.calls, 1)), "count"},
		"machine.adversary_share":          {0, "ratio"},
		"sim.steps_per_run":                {0, "count"},
		"sim.core_ms_per_run":              {0, "ms"},
		"runtime.allocs_per_decision":      {float64(p.proc.mallocs) / dec, "count"},
		"runtime.gc_cpu_fraction":          {p.proc.gcFraction, "ratio"},
		"runtime.sys_cpu_share":            {p.proc.sys.Seconds() / max(p.proc.cpu().Seconds(), 1e-9), "ratio"},
		"runtime.goroutines_max":           {float64(p.goroutines), "count"},
		"setup.deploy_s":                   {median(deploy), "s"},
		"setup.first_decision_ms":          {median(first), "ms"},
	}
	self := map[string]float64{
		"loadgen": mean(lagMS),
		"client":  mean(overheadMS),
		"service": mean(svcSelf),
		"machine": float64(mt.ns) / tinst / 1e6,
		"wire":    m["wire.self_ms_per_decision"].Value,
	}
	return m, self, len(svcSelf)
}
