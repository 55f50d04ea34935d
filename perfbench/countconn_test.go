package main

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// The peer-plane counter must find every frame boundary however the
// stream is cut into reads, and copy out exactly the captured instances.
func TestCountingConnParsesSplitStream(t *testing.T) {
	var stream []byte
	stream = append(stream, "ABMX\x04\x00\x01"...) // mux hello
	var want [][]byte
	for i := 0; i < 50; i++ {
		inst := uint64(i%3+1) << 10
		body, err := wire.AppendInstanceMessage(nil, inst, transport.Message{From: 1, To: 0, Payload: wire.Open{Protocol: "aad"}})
		if err != nil {
			t.Fatal(err)
		}
		if stream, err = wire.AppendRawFrame(stream, body); err != nil {
			t.Fatal(err)
		}
		if inst == 2<<10 {
			want = append(want, body)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		pc := &peerCounter{}
		set := map[uint64]bool{2 << 10: true}
		pc.capture.Store(&set)
		c := &countingConn{pc: pc, skip: muxHello}
		for rest := stream; len(rest) > 0; {
			k := min(1+rng.Intn(40), len(rest))
			c.scan(rest[:k])
			rest = rest[k:]
		}
		if got := pc.frames.Load(); got != 50 {
			t.Fatalf("trial %d: counted %d frames, want 50", trial, got)
		}
		if got := pc.bytes.Load(); got != int64(len(stream)-muxHello) {
			t.Fatalf("trial %d: counted %d bytes, want %d", trial, got, len(stream)-muxHello)
		}
		got := pc.takeCaptured()
		if len(got) != len(want) {
			t.Fatalf("trial %d: captured %d frames, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("trial %d: captured frame %d differs", trial, i)
			}
		}
	}
}
