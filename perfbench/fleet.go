package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro"
	"repro/internal/service"
)

// fleet is one in-process daemon per vertex, peers over loopback TCP, each
// peer listener wrapped for counting (see countingListener).
type fleet struct {
	sc          repro.Scenario
	daemons     []*service.Daemon
	clientAddrs []string
	pc          *peerCounter
}

// fleetLinger keeps a decided instance serving its peers this long before
// retirement (the service's own default is 1.5 s; a shorter linger makes
// the end-of-pass quiescence wait shorter without changing any decision).
const fleetLinger = 500 * time.Millisecond

// startFleet builds and starts the fleet. Every daemon serves protocols
// and, with clients, its JSON-lines client plane.
func startFleet(ctx context.Context, sc repro.Scenario, protocols []string, clients bool) (*fleet, error) {
	g, _, err := sc.Materialize()
	if err != nil {
		return nil, err
	}
	n := g.N()
	f := &fleet{sc: sc, pc: &peerCounter{}}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	closeAll := func() {
		for _, l := range lns {
			if l != nil {
				l.Close()
			}
		}
	}
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("peer listener: %w", err)
		}
		lns[i] = l
		addrs[i] = l.Addr().String()
	}
	for i := 0; i < n; i++ {
		peers := make(map[int]string)
		for _, v := range g.Out(i) {
			peers[v] = addrs[v]
		}
		cfg := service.Config{
			ID:           i,
			Scenario:     sc,
			Protocols:    protocols,
			PeerListener: countingListener{Listener: lns[i], pc: f.pc},
			Peers:        peers,
			Linger:       fleetLinger,
		}
		if clients {
			cl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll()
				f.close()
				return nil, fmt.Errorf("client listener: %w", err)
			}
			cfg.ClientListener = cl
			f.clientAddrs = append(f.clientAddrs, cl.Addr().String())
		}
		d, err := service.New(cfg)
		if err != nil {
			if cfg.ClientListener != nil {
				cfg.ClientListener.Close()
			}
			closeAll()
			f.close()
			return nil, err
		}
		lns[i] = nil // the daemon owns it now
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		d.Start(ctx)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, d := range f.daemons {
		d.Close()
	}
}

// fleetStat sums every daemon's Snapshot and adds the peer-plane counts.
type fleetStat struct {
	submitted, opened, decided, retired, active int64
	late, pendingShed, refused, badFrames       int64
	enqueued, shed, waits, depth, maxDepth      int64
	frames, bytes, reads                        int64
	snaps                                       []service.Snapshot
}

func (f *fleet) stat() fleetStat {
	var s fleetStat
	for _, d := range f.daemons {
		sn := d.Snapshot()
		s.snaps = append(s.snaps, sn)
		s.submitted += sn.Submitted
		s.opened += sn.Opened
		s.decided += sn.Decided
		s.retired += sn.Retired
		s.active += sn.Active
		s.late += sn.LateFrames
		s.pendingShed += sn.PendingShed
		s.refused += sn.Refused
		s.badFrames += sn.BadFrames
		s.enqueued += sn.Queue.Enqueued
		s.shed += sn.Queue.Shed
		s.waits += sn.Queue.Waits
		s.depth += sn.Queue.Depth
		s.maxDepth = max(s.maxDepth, sn.Queue.MaxDepth)
	}
	s.frames = f.pc.frames.Load()
	s.bytes = f.pc.bytes.Load()
	s.reads = f.pc.reads.Load()
	return s
}

func (f *fleet) active() int64 {
	var a int64
	for _, d := range f.daemons {
		a += d.Snapshot().Active
	}
	return a
}

// quiesce waits until no instance is in flight and every frame the queues
// released has been read by its peer, then checks the conservation laws:
// frames counted on the wrapped listeners equal Σ Enqueued − Σ Depth (shed
// frames never enter Enqueued), and per daemon opened = active + retired
// and decided ≤ opened. A law that does not hold is an error.
func (f *fleet) quiesce(timeout time.Duration) (fleetStat, error) {
	deadline := time.Now().Add(timeout)
	for {
		s := f.stat()
		if s.active == 0 && s.depth == 0 && s.frames == s.enqueued-s.depth {
			for _, sn := range s.snaps {
				if sn.Opened != sn.Active+sn.Retired {
					return s, fmt.Errorf("reconcile: daemon %d opened %d != active %d + retired %d", sn.ID, sn.Opened, sn.Active, sn.Retired)
				}
				if sn.Decided > sn.Opened {
					return s, fmt.Errorf("reconcile: daemon %d decided %d > opened %d", sn.ID, sn.Decided, sn.Opened)
				}
			}
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("reconcile: no quiescence after %s: active %d, queued %d, frames read %d != enqueued %d - depth %d",
				timeout, s.active, s.depth, s.frames, s.enqueued, s.depth)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
