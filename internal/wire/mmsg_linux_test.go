//go:build linux && (amd64 || arm64)

package wire

import (
	"bytes"
	"testing"
)

// TestMmsgSelection: socket conns get the sendmmsg/recvmmsg batch path;
// a conn that exposes no descriptor gets the per-frame adapter.
func TestMmsgSelection(t *testing.T) {
	a, b, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if _, ok := newFrameWriter(a, 4).(mmsgWriter); !ok {
		t.Error("socket writer is not batched")
	}
	if _, ok := newFrameReader(b, 4).(mmsgReader); !ok {
		t.Error("socket reader is not batched")
	}
	if _, ok := newFrameWriter(&flakyConn{Conn: a}, 4).(frameConn); !ok {
		t.Error("descriptor-less conn did not fall back to per-frame writes")
	}
}

// TestMmsgRoundTrip: one sendmmsg of five frames, one recvmmsg into
// eight buffers returns all five with their lengths, and a datagram
// longer than its buffer is truncated as a single read would truncate
// it.
func TestMmsgRoundTrip(t *testing.T) {
	a, b, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	w, r := newFrameWriter(a, 8), newFrameReader(b, 8)
	frames := [][]byte{testFrame(60, 1), testFrame(64, 2), testFrame(200, 3), testFrame(80, 4)[:1], testFrame(300, 5)}
	if n, err := w.writeBatch(frames); n != len(frames) || err != nil {
		t.Fatalf("writeBatch = %d, %v", n, err)
	}
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 256)
	}
	lens := make([]int, 8)
	n, err := r.readBatch(bufs, lens)
	if n != len(frames) || err != nil {
		t.Fatalf("readBatch = %d, %v; want %d frames in one batch", n, err, len(frames))
	}
	for i, f := range frames {
		if len(f) > 256 {
			f = f[:256]
		}
		if !bytes.Equal(bufs[i][:lens[i]], f) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, lens[i], len(f))
		}
	}
}
