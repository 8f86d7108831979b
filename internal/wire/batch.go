// Batched socket I/O for the live port. A DPDK PMD moves a burst of
// frames per call and rings the TX doorbell once per burst; the port does
// the same with one sendmmsg per Flush and one recvmmsg per RX wake
// where the platform has them (mmsg_linux.go). Everywhere else — other
// operating systems, and conns that expose no descriptor, such as the
// fault-injecting test conns — a per-frame adapter stands behind the
// same two signatures, so Port and Fanout keep one code path.
package wire

import "net"

// frameWriter sends datagrams in order. writeBatch returns how many
// frames from the front left; when err is non-nil it is the error of
// frames[n], and nothing after it was attempted. It may send fewer than
// len(frames) with a nil error; the caller sends the rest with another
// call. A full peer queue blocks rather than surfacing EAGAIN.
type frameWriter interface {
	writeBatch(frames [][]byte) (n int, err error)
}

// frameReader receives datagrams. readBatch blocks until at least one is
// queued, then fills bufs[0:n] with as many as are waiting, one datagram
// per buffer, and lens[0:n] with their lengths. A datagram longer than
// its buffer is truncated, as a single read would truncate it.
type frameReader interface {
	readBatch(bufs [][]byte, lens []int) (n int, err error)
}

// frameConn is the per-frame adapter: one Write per frame, one Read per
// wake.
type frameConn struct{ c net.Conn }

func (f frameConn) writeBatch(frames [][]byte) (int, error) {
	for i, b := range frames {
		if _, err := f.c.Write(b); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

func (f frameConn) readBatch(bufs [][]byte, lens []int) (int, error) {
	n, err := f.c.Read(bufs[0])
	if err != nil {
		return 0, err
	}
	lens[0] = n
	return 1, nil
}

// newFrameWriter returns the batched writer for c when the platform and
// the conn support one, the per-frame adapter otherwise. max bounds the
// frames one call can send.
func newFrameWriter(c net.Conn, max int) frameWriter {
	if w := newMmsgWriter(c, max); w != nil {
		return w
	}
	return frameConn{c}
}

// newFrameReader is newFrameWriter's receive side; max bounds the
// datagrams one call can return.
func newFrameReader(c net.Conn, max int) frameReader {
	if r := newMmsgReader(c, max); r != nil {
		return r
	}
	return frameConn{c}
}
