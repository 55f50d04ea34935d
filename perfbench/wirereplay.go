package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// wireCost is the codec's per-frame cost over a captured frame mix.
type wireCost struct {
	frames                     int
	readNS, decodeNS, encodeNS float64
	decodeAllocs, bytes        float64
}

// replayMinTime is how long each replay phase repeats over the mix, so a
// small capture still gives a stable per-frame figure.
const replayMinTime = 150 * time.Millisecond

// replayWire feeds the captured frame bodies, in arrival order, through
// the public codec: wire.FrameReader.NextBatch over the length-prefixed
// stream, wire.DecodeInstanceMessage on every body, and
// wire.AppendInstanceMessage re-encoding every decoded message.
func replayWire(t *tracer, bodies [][]byte) (wireCost, error) {
	c := wireCost{frames: len(bodies)}
	if len(bodies) == 0 {
		return c, nil
	}
	var stream []byte
	var err error
	for _, b := range bodies {
		if stream, err = wire.AppendRawFrame(stream, b); err != nil {
			return c, err
		}
		c.bytes += float64(len(b) + 4)
	}
	c.bytes /= float64(len(bodies))

	// The phases repeat the whole mix until replayMinTime has passed.
	phase := func(name string, pass func() error) (float64, error) {
		start := t.now()
		var n int
		for time.Duration(t.now()-start) < replayMinTime {
			if err := pass(); err != nil {
				return 0, err
			}
			n++
		}
		end := t.now()
		t.add(span{ID: t.nextID(), Name: name, Start: start, End: end})
		return float64(end-start) / float64(n*len(bodies)), nil
	}

	frames := make([][]byte, 0, 64)
	infos := make([]wire.FrameInfo, 0, 64)
	if c.readNS, err = phase("wire.read", func() error {
		fr := wire.NewFrameReader(bytes.NewReader(stream))
		read := 0
		for {
			frames, infos, err = fr.NextBatch(frames[:0], infos[:0], 64)
			for _, f := range frames {
				wire.PutBuf(f)
			}
			read += len(frames)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
		}
		if read != len(bodies) {
			return fmt.Errorf("wire replay: read %d of %d frames", read, len(bodies))
		}
		return nil
	}); err != nil {
		return c, err
	}

	msgs := make([]transport.Message, len(bodies))
	insts := make([]uint64, len(bodies))
	decodeAll := func() error {
		for i, b := range bodies {
			inst, m, err := wire.DecodeInstanceMessage(b)
			if err != nil {
				return err
			}
			insts[i], msgs[i] = inst, m
		}
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := decodeAll(); err != nil {
		return c, err
	}
	runtime.ReadMemStats(&after)
	c.decodeAllocs = float64(after.Mallocs-before.Mallocs) / float64(len(bodies))
	if c.decodeNS, err = phase("wire.decode", decodeAll); err != nil {
		return c, err
	}

	buf := make([]byte, 0, 64<<10)
	if c.encodeNS, err = phase("wire.encode", func() error {
		for i, m := range msgs {
			if buf, err = wire.AppendInstanceMessage(buf[:0], insts[i], m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return c, err
	}
	return c, nil
}
