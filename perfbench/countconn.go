package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// The peer plane is counted from outside: every daemon's peer listener is
// wrapped before it is handed to service.New as Config.PeerListener, and
// each accepted connection parses the stream it reads — the mux hello,
// then 4-byte big-endian length-prefixed frames — to count frames, bytes
// and read calls. The traced run also copies out every frame of a fixed
// set of instances, the captured mix the wire replay feeds through the
// public codec.

// muxHello is the length of the hello a mux dialer writes before its
// first frame: 4 magic bytes, the wire version, a 2-byte vertex id.
const muxHello = 7

// peerCounter aggregates every wrapped connection of one fleet.
type peerCounter struct {
	frames, bytes, reads atomic.Int64

	// capture, when set, names the instances whose frames are copied into
	// captured.
	capture  atomic.Pointer[map[uint64]bool]
	mu       sync.Mutex
	captured [][]byte
}

func (pc *peerCounter) takeCaptured() [][]byte {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	c := pc.captured
	pc.captured = nil
	return c
}

type countingListener struct {
	net.Listener
	pc *peerCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, pc: l.pc, skip: muxHello}, nil
}

// countingConn is read by exactly one goroutine (the mux reader), so its
// parse state needs no locking; only the shared totals are atomic.
type countingConn struct {
	net.Conn
	pc   *peerCounter
	skip int // hello bytes not yet seen

	hdr  [4]byte
	nhdr int
	left int    // body bytes of the current frame still to come
	body []byte // the current frame's body, kept only while capturing
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.pc.reads.Add(1)
		c.scan(p[:n])
	}
	return n, err
}

func (c *countingConn) scan(b []byte) {
	if c.skip > 0 {
		k := min(c.skip, len(b))
		c.skip -= k
		b = b[k:]
	}
	c.pc.bytes.Add(int64(len(b)))
	capture := c.pc.capture.Load()
	for len(b) > 0 {
		if c.left == 0 && c.nhdr < 4 {
			k := copy(c.hdr[c.nhdr:], b)
			c.nhdr += k
			b = b[k:]
			if c.nhdr < 4 {
				return
			}
			c.left = int(binary.BigEndian.Uint32(c.hdr[:]))
			c.body = c.body[:0]
			if c.left == 0 {
				c.frameDone(capture)
				continue
			}
		}
		k := min(c.left, len(b))
		if capture != nil {
			c.body = append(c.body, b[:k]...)
		}
		c.left -= k
		b = b[k:]
		if c.left == 0 {
			c.frameDone(capture)
		}
	}
}

func (c *countingConn) frameDone(capture *map[uint64]bool) {
	c.nhdr = 0
	c.pc.frames.Add(1)
	if capture == nil {
		return
	}
	info, err := wire.PeekFrame(c.body)
	if err != nil || !(*capture)[info.Inst] {
		return
	}
	frame := append([]byte(nil), c.body...)
	c.pc.mu.Lock()
	c.pc.captured = append(c.pc.captured, frame)
	c.pc.mu.Unlock()
}
