package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The TCP medium maps each directed edge (u, v) to one TCP connection
// dialed by the sender u — the same cluster.Mux fabric the service tier
// runs on, carrying one instance. A connection opens with the mux hello
// (magic, codec version, two-byte sender vertex), after which it carries
// length-prefixed wire frames in send order (TCP gives the per-edge FIFO
// reliability the model assumes). Dialing retries with backoff until the
// context ends, so the inevitable races of multi-process startup — the
// peer's listener not up yet — resolve themselves; a write failure mid-run
// redials the same way, keeping the frame that failed.

// dialRetryFloor/Ceil bound the reconnect backoff.
const (
	dialRetryFloor = 5 * time.Millisecond
	dialRetryCeil  = 250 * time.Millisecond
)

// Listen binds a TCP listener on addr. When the port is taken and non-zero,
// it retries the next `attempts-1` consecutive ports — the port-collision
// fallback multi-process runs on one host need. The bound address is
// recoverable from the listener.
func Listen(addr string, attempts int) (net.Listener, error) {
	if attempts < 1 {
		attempts = 1
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen address %q: bad port: %w", addr, err)
	}
	if port == 0 {
		attempts = 1 // the kernel picks; collisions cannot happen
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		ln, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(port+i)))
		if err == nil {
			return ln, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: no free port in %d attempts from %s: %w", attempts, addr, lastErr)
}

// nodeSink feeds one Mux's inbound bursts into a single-instance node:
// one slab push per burst. The node decodes every frame in full (and
// counts a bad one as Stats.Malformed), so the peeked infos are unused.
// nd and ctx are filled in before the Mux starts.
type nodeSink struct {
	nd  *node.Node
	ctx context.Context
}

func (s *nodeSink) deliver(from int, frames [][]byte, _ []wire.FrameInfo) {
	slab := node.GetSlab()
	for _, frame := range frames {
		slab = append(slab, node.Inbound{From: from, Frame: frame})
	}
	// PushBatch transfers ownership of the slab and every frame; on false
	// (node shut down, ctx cancelled) everything is still ours to release.
	if !s.nd.PushBatch(s.ctx, slab) {
		releaseFrames(frames)
		node.PutSlab(slab)
	}
}

// tcpNetwork is the in-process harness form of the medium: one Mux per
// vertex, listeners bound up front on ephemeral ports so addresses are
// discovered before anything dials.
type tcpNetwork struct {
	muxes    []*Mux
	sinks    []nodeSink
	stopOnce sync.Once
}

func newTCPNetwork(g *graph.Graph) (*tcpNetwork, error) {
	if g == nil {
		return nil, fmt.Errorf("cluster: tcp needs a graph")
	}
	n := g.N()
	listeners := make([]net.Listener, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := Listen("127.0.0.1:0", 1)
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tn := &tcpNetwork{muxes: make([]*Mux, n), sinks: make([]nodeSink, n)}
	for i := 0; i < n; i++ {
		m, err := NewMux(MuxConfig{
			ID:           i,
			Graph:        g,
			Listener:     listeners[i],
			Peers:        addrs,
			OnFrameBatch: tn.sinks[i].deliver,
		})
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		tn.muxes[i] = m
	}
	return tn, nil
}

func (tn *tcpNetwork) name() string { return "tcp" }

func (tn *tcpNetwork) link(id int) node.Outbound { return tn.muxes[id] }

func (tn *tcpNetwork) start(ctx context.Context, nodes []*node.Node) error {
	for i, nd := range nodes {
		tn.sinks[i] = nodeSink{nd: nd, ctx: ctx}
	}
	for _, m := range tn.muxes {
		m.Start(ctx)
	}
	return nil
}

func (tn *tcpNetwork) stop() {
	tn.stopOnce.Do(func() {
		for _, m := range tn.muxes {
			m.Stop()
		}
	})
}

func (tn *tcpNetwork) queueStats() QueueStats {
	var s QueueStats
	for _, m := range tn.muxes {
		s.add(m.QueueStats())
	}
	return s
}

// JoinConfig describes one vertex joining a (possibly multi-process) TCP
// cluster: its own machine, where to listen for in-edges, and where to
// find the vertices it has out-edges to.
type JoinConfig struct {
	ID      int
	Graph   *graph.Graph
	Handler sim.Handler
	// Listener, when non-nil, is used as-is (the harness path). Otherwise
	// Listen ("host:port"; empty means 127.0.0.1:0) is bound with
	// ListenAttempts consecutive-port fallback.
	Listener       net.Listener
	Listen         string
	ListenAttempts int
	// Peers maps every out-neighbor of ID to its dial address.
	Peers map[int]string
	// LinkFaults, when non-nil, applies per-edge link failures to this
	// vertex's outbound frames (see FaultyOutbound). Every member of a
	// multi-process cluster compiles the same rule set from the shared
	// scenario; each consults only its own out-edges, so the per-edge
	// seeded streams agree across processes.
	LinkFaults *linkfault.Set
	// Observer and OnDecide are passed to the node runtime.
	Observer sim.Observer
	OnDecide func(id int, output float64)
	// OnListen, when non-nil, is invoked with the bound listen address
	// before any dialing starts (operators log it; tests discover fallback
	// ports through it).
	OnListen func(addr string)
}

// NodeOutcome reports one vertex's run.
type NodeOutcome struct {
	ID      int
	Output  float64
	Decided bool
	Addr    string
	Stats   node.Stats
}

// JoinTCP runs one vertex of a TCP cluster until ctx ends (the caller
// decides how long to keep serving after deciding — in the asynchronous
// model honest nodes keep relaying for their peers). It returns the
// vertex's outcome; cancellation is the normal exit and is not an error.
func JoinTCP(ctx context.Context, cfg JoinConfig) (*NodeOutcome, error) {
	if cfg.Graph == nil {
		return nil, errors.New("cluster: join needs a graph")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Graph.N() {
		return nil, fmt.Errorf("cluster: join id %d outside graph order %d", cfg.ID, cfg.Graph.N())
	}
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		if ln, err = Listen(addr, cfg.ListenAttempts); err != nil {
			return nil, err
		}
	}
	sink := &nodeSink{}
	mux, err := NewMux(MuxConfig{
		ID:           cfg.ID,
		Graph:        cfg.Graph,
		Listener:     ln,
		Peers:        cfg.Peers,
		OnFrameBatch: sink.deliver,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr().String())
	}
	nd, err := node.New(node.Config{
		ID:       cfg.ID,
		Graph:    cfg.Graph,
		Handler:  cfg.Handler,
		Out:      FaultyOutbound(mux, cfg.LinkFaults, cfg.ID),
		Observer: cfg.Observer,
		OnDecide: cfg.OnDecide,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sink.nd, sink.ctx = nd, runCtx
	mux.Start(runCtx)
	runErr := nd.Run(runCtx)
	cancel()
	mux.Stop()
	out := &NodeOutcome{ID: cfg.ID, Addr: ln.Addr().String(), Stats: nd.Stats()}
	out.Output, out.Decided = nd.Output()
	if runErr != nil {
		return out, fmt.Errorf("cluster: join: %w", runErr)
	}
	return out, nil
}
