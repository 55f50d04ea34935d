package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/adversary"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The traced run records spans at the boundaries the benchmark owns: the
// generator's request (scheduled send to decision), its Submit and Wait
// calls, the client-plane round trip, every Start/Deliver of a protocol
// machine (through handlers wrapped via the builder registry), each sim
// run, and the codec replay. Spans are kept in memory under a fixed
// budget and written out as JSON lines when the run ends; per-layer totals
// are accumulated for every span, stored or not.

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root. Spans of one service request
// share Inst.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Inst   uint64 `json:"inst,omitempty"`
	Vertex int    `json:"vertex,omitempty"`
}

// spanBudget bounds the machine spans a traced run keeps in memory (a
// traced aad window makes ~1.4k sampled machine spans a decision). The
// coarse spans — requests, round trips, sim runs, replay phases — number
// one or a few per decision and are always kept.
const spanBudget = 100_000

type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	budget atomic.Int64

	mu       sync.Mutex
	spans    []span
	handlers []*handlerStats
	runs     []simRun
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.budget.Store(spanBudget)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) nextID() int64 { return t.ids.Add(1) }

// add stores a finished coarse span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// active is the tracer the wrapped builders report to; nil outside a
// traced pass. Builders are registered once per process, so they find the
// current tracer here.
var active atomic.Pointer[tracer]

// timedHandler wraps one protocol machine and times every Start and
// Deliver call into its handlerStats. It is driven by exactly one
// goroutine (a node event loop or a sim run); the stats are read only
// after that goroutine is done. The tracer keeps the stats, never the
// machine, so retired machines stay collectable.
type timedHandler struct {
	sim.Handler
	tr          *tracer
	role        string // "machine" or "adversary"
	deliverName string
	st          *handlerStats
}

type handlerStats struct {
	key    int64 // the instance seed (service) or sim run id
	parent int64 // the enclosing span, when known at construction
	vertex int
	rng    uint64 // xorshift state choosing the timed calls

	calls, sends int64
	timed        int64 // calls that were timed
	timedNS      int64
	nsToDecide   int64 // estimated machine time up to this vertex's decision
	decided      bool
	spans        []span
}

// sampleMask picks the timed calls: one in sampleMask+1, at random. Each
// clock read costs about 150 ns on the reference host (a BW run makes
// ~31k calls), so timing every call would inflate the traced run by a
// fifth; the sampled mean times the call count estimates the self time.
const sampleMask = 7

// ns estimates the handler's total self time from its timed calls.
func (st *handlerStats) ns() float64 {
	if st.timed == 0 {
		return 0
	}
	return float64(st.timedNS) * float64(st.calls) / float64(st.timed)
}

// wrap times h. Stats of service machines are kept by the tracer
// (keep); a sim run sums its own handlers' stats when it ends.
func (t *tracer) wrap(h sim.Handler, role string, key, parent int64, keep bool) *timedHandler {
	st := &handlerStats{key: key, parent: parent, vertex: h.ID(), rng: uint64(key)*0x9E3779B97F4A7C15 | 1}
	if keep {
		t.mu.Lock()
		t.handlers = append(t.handlers, st)
		t.mu.Unlock()
	}
	return &timedHandler{Handler: h, tr: t, role: role, deliverName: role + ".deliver", st: st}
}

// begin counts a call and, for the sampled ones, reads the clock.
func (w *timedHandler) begin(out *sim.Outbox) (sent int, start int64, timed bool) {
	st := w.st
	st.calls++
	st.rng ^= st.rng << 13
	st.rng ^= st.rng >> 7
	st.rng ^= st.rng << 17
	// Start, one call per machine, is always timed.
	if st.calls == 1 || st.rng&sampleMask == 0 {
		return len(out.Messages()), w.tr.now(), true
	}
	return len(out.Messages()), 0, false
}

func (w *timedHandler) end(name string, out *sim.Outbox, sent int, start int64, timed bool) {
	st := w.st
	if timed {
		end := w.tr.now()
		st.timed++
		st.timedNS += end - start
		if w.tr.budget.Load() > 0 && w.tr.budget.Add(-1) >= 0 {
			st.spans = append(st.spans, span{ID: w.tr.nextID(), Parent: st.parent, Name: name, Start: start, End: end, Vertex: st.vertex})
		}
	}
	st.sends += int64(len(out.Messages()) - sent)
	if !st.decided {
		if _, ok := w.Handler.Output(); ok {
			st.decided = true
			st.nsToDecide = int64(st.ns())
		}
	}
}

func (w *timedHandler) Start(out *sim.Outbox) {
	sent, start, timed := w.begin(out)
	w.Handler.Start(out)
	w.end(w.role+".start", out, sent, start, timed)
}

func (w *timedHandler) Deliver(m transport.Message, out *sim.Outbox) {
	sent, start, timed := w.begin(out)
	w.Handler.Deliver(m, out)
	w.end(w.deliverName, out, sent, start, timed)
}

// History and Vector forward the optional decision-detail interfaces the
// node, the service and the sim result read off their handlers.
func (w *timedHandler) History() []float64 {
	if hp, ok := w.Handler.(interface{ History() []float64 }); ok {
		return hp.History()
	}
	return nil
}

func (w *timedHandler) Vector() map[int]float64 {
	if vp, ok := w.Handler.(interface{ Vector() map[int]float64 }); ok {
		return vp.Vector()
	}
	return nil
}

// baseProtocol strips the traced suffix, naming the protocol's audit rule.
func baseProtocol(name string) string { return strings.TrimSuffix(name, tracedSuffix) }

const tracedSuffix = ".traced"

// registerTraced registers base+".traced" (once per process): its builder
// wraps every machine the base builder mints (the service mints through
// this), and its RunFunc runs the sim with machines and adversary wrappers
// timed apart.
func registerTraced(base string) (string, error) {
	name := base + tracedSuffix
	build, err := repro.ProtocolBuilder(base)
	if err != nil {
		return "", err
	}
	if _, err := repro.ProtocolBuilder(name); err == nil {
		return name, nil
	}
	repro.Register(name, func(g *repro.Graph, inputs []float64, opts repro.Options) (*repro.Result, error) {
		return runTracedSim(build, g, inputs, opts)
	})
	repro.RegisterBuilder(name, func(g *repro.Graph, inputs []float64, opts repro.Options) (repro.HandlerFactory, error) {
		factory, err := build(g, inputs, opts)
		if err != nil {
			return nil, err
		}
		return func(id int) (repro.Handler, error) {
			h, err := factory(id)
			if err != nil {
				return nil, err
			}
			t := active.Load()
			if t == nil {
				return h, nil
			}
			return t.wrap(h, "machine", opts.Seed, 0, true), nil
		}, nil
	})
	return name, nil
}

// simRun is one traced sim run's totals.
type simRun struct {
	wall        int64
	steps       int
	machineNS   float64 // building the machines plus their Start/Deliver calls
	buildNS     float64
	adversaryNS float64 // adversary wrapper self time
	deliveries  int64
	sends       int64
}

// runTracedSim is the simulator path (repro's runProtocol) with timed
// handlers: each machine is wrapped, the faulty vertices' adversary
// wrappers are built around the timed machine and wrapped again, so the
// adversary's self time is the outer span minus the inner one. repro has
// no hook to interpose outside its adversary wrapper, so the runner is
// assembled here from the same packages; the untraced pass of the same
// seeds must report the same step counts (checked by the caller).
func runTracedSim(build repro.BuilderFunc, g *repro.Graph, inputs []float64, opts repro.Options) (*repro.Result, error) {
	t := active.Load()
	if t == nil {
		return nil, fmt.Errorf("perfbench: traced sim run outside a traced pass")
	}
	if opts.F <= 0 || opts.K <= 0 || opts.Eps <= 0 {
		return nil, fmt.Errorf("perfbench: traced sim runs need explicit f, k and eps")
	}
	// The run span covers building the machines too (for BW, the path
	// enumeration): that is machine-layer work, timed as its own span.
	runID := t.nextID()
	start := t.now()
	factory, err := build(g, inputs, opts)
	if err != nil {
		return nil, err
	}
	handlers := make([]sim.Handler, g.N())
	var inner, outer []*handlerStats
	honest := repro.NodeSet{}
	for i := 0; i < g.N(); i++ {
		h, err := factory(i)
		if err != nil {
			return nil, err
		}
		m := t.wrap(h, "machine", runID, runID, false)
		inner = append(inner, m.st)
		fl, bad := opts.Faults[i]
		if !bad {
			handlers[i] = m
			honest = honest.Add(i)
			continue
		}
		spec := adversary.Spec{Kind: fl.Kind, Params: adversary.Params(fl.Params)}
		for _, c := range fl.Compose {
			spec.Compose = append(spec.Compose, adversary.Layer{Kind: c.Kind, Params: adversary.Params(c.Params)})
		}
		adv, err := adversary.BuildHandler(i, spec, m, adversary.NodeSeed(opts.Seed, i))
		if err != nil {
			return nil, err
		}
		a := t.wrap(adv, "adversary", runID, runID, false)
		outer = append(outer, a.st)
		handlers[i] = a
	}
	built := t.now()
	t.add(span{ID: t.nextID(), Parent: runID, Name: "machine.build", Start: start, End: built})
	engine, err := sim.NewEngine(opts.Engine, opts.EngineWorkers)
	if err != nil {
		return nil, err
	}
	policy, err := transport.NewPolicy(opts.Policy, opts.PolicyParams, opts.Seed)
	if err != nil {
		return nil, err
	}
	runner, err := sim.New(sim.Config{Graph: g, Policy: policy, Engine: engine}, handlers)
	if err != nil {
		return nil, err
	}
	if err := runner.Run(); err != nil {
		return nil, err
	}
	end := t.now()
	t.add(span{ID: runID, Name: "sim.run", Start: start, End: end})

	rec := simRun{wall: end - start, steps: runner.Steps(), buildNS: float64(built - start), machineNS: float64(built - start)}
	for _, m := range inner {
		rec.machineNS += m.ns()
		rec.deliveries += m.calls
		rec.sends += m.sends
	}
	for _, a := range outer {
		var in float64
		for _, m := range inner {
			if m.vertex == a.vertex {
				in += m.ns()
			}
		}
		rec.adversaryNS += a.ns() - in
		rec.machineNS += a.ns() - in
	}
	t.mu.Lock()
	t.runs = append(t.runs, rec)
	for _, st := range append(inner, outer...) {
		t.spans = append(t.spans, st.spans...)
	}
	t.mu.Unlock()

	res := &repro.Result{Honest: honest, Steps: runner.Steps(), MessagesSent: runner.Stats().Sent}
	res.Outputs, res.Decided = runner.Outputs(honest)
	lo, hi := math.Inf(1), math.Inf(-1)
	honest.ForEach(func(v int) bool {
		lo, hi = math.Min(lo, inputs[v]), math.Max(hi, inputs[v])
		return true
	})
	omin, omax := math.Inf(1), math.Inf(-1)
	for _, x := range res.Outputs {
		omin, omax = math.Min(omin, x), math.Max(omax, x)
	}
	if len(res.Outputs) > 0 {
		res.Spread = omax - omin
		res.ValidityOK = omin >= lo && omax <= hi
	}
	res.Converged = res.Decided && res.Spread < opts.Eps
	return res, nil
}

// machineTotals sums the service machines' counters.
type machineTotals struct {
	ns           float64
	calls, sends int64
	toDecide     map[[2]int64]int64 // (instance seed, vertex) -> ns
}

func (t *tracer) machineTotals() machineTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	mt := machineTotals{toDecide: make(map[[2]int64]int64)}
	for _, w := range t.handlers {
		mt.ns += w.ns()
		mt.calls += w.calls
		mt.sends += w.sends
		if w.decided {
			mt.toDecide[[2]int64{w.key, int64(w.vertex)}] = w.nsToDecide
		}
	}
	return mt
}

// write dumps every stored span as JSON lines to dir/name, handler spans
// resolved to their instance through instOf (instance seed -> id).
func (t *tracer) write(path string, instOf map[int64]uint64) (int, error) {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	for _, w := range t.handlers {
		for _, s := range w.spans {
			if inst, ok := instOf[w.key]; ok {
				s.Inst = inst
			}
			all = append(all, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}
