//go:build linux && (amd64 || arm64)

package wire

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr is struct mmsghdr: one message header plus the byte count the
// kernel fills in. Go pads it to the C layout (64 bytes on 64-bit).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgBatch is the state one batched call shares with its callback: a
// fixed header array whose entries each point at their own iovec. The
// callback is a method value bound once per conn, so a call allocates
// nothing.
type mmsgBatch struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	// off counts messages done; end is the batch size; errno is the
	// error that stopped the batch early.
	off, end int
	errno    syscall.Errno
	fn       func(fd uintptr) bool
}

// newMmsgBatch returns nil when c exposes no descriptor.
func newMmsgBatch(c net.Conn, max int) *mmsgBatch {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	b := &mmsgBatch{rc: rc, hdrs: make([]mmsghdr, max), iovs: make([]syscall.Iovec, max)}
	for i := range b.hdrs {
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
	}
	return b
}

// load points the first len(bufs) iovecs at bufs and resets the call
// state; it returns the batch size.
func (b *mmsgBatch) load(bufs [][]byte) int {
	if len(bufs) > len(b.iovs) {
		bufs = bufs[:len(b.iovs)]
	}
	for i, f := range bufs {
		b.iovs[i].Base = unsafe.SliceData(f)
		b.iovs[i].SetLen(len(f))
	}
	b.off, b.end, b.errno = 0, len(bufs), 0
	return len(bufs)
}

// call runs one mmsg syscall over the messages not yet done. It returns
// false only on EAGAIN, which the RawConn turns into a wait on the
// netpoller; EINTR is retried in place.
func (b *mmsgBatch) call(trap, fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(&b.hdrs[b.off])),
			uintptr(b.end-b.off), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			b.off += int(r)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			b.errno = e
			return true
		}
	}
}

// result folds the callback's errno and the RawConn's own error (a
// closed conn) into writeBatch/readBatch's return.
func (b *mmsgBatch) result(err error) (int, error) {
	if b.errno != 0 {
		return b.off, b.errno
	}
	return b.off, err
}

// mmsgWriter sends a batch with sendmmsg, waiting on the netpoller while
// the peer's queue is full and resuming where the kernel stopped.
type mmsgWriter struct{ *mmsgBatch }

func newMmsgWriter(c net.Conn, max int) frameWriter {
	b := newMmsgBatch(c, max)
	if b == nil {
		return nil
	}
	w := mmsgWriter{b}
	b.fn = w.send
	return w
}

func (w mmsgWriter) send(fd uintptr) bool {
	for w.off < w.end && w.errno == 0 {
		if !w.call(sysSendmmsg, fd) {
			return false
		}
	}
	return true
}

func (w mmsgWriter) writeBatch(frames [][]byte) (int, error) {
	if w.load(frames) == 0 {
		return 0, nil
	}
	return w.result(w.rc.Write(w.fn))
}

// mmsgReader receives with recvmmsg: whatever is queued, up to the batch
// size, once the socket is readable.
type mmsgReader struct{ *mmsgBatch }

func newMmsgReader(c net.Conn, max int) frameReader {
	b := newMmsgBatch(c, max)
	if b == nil {
		return nil
	}
	r := mmsgReader{b}
	b.fn = r.recv
	return r
}

func (r mmsgReader) recv(fd uintptr) bool { return r.call(sysRecvmmsg, fd) }

func (r mmsgReader) readBatch(bufs [][]byte, lens []int) (int, error) {
	if r.load(bufs) == 0 {
		return 0, nil
	}
	n, err := r.result(r.rc.Read(r.fn))
	for i := 0; i < n; i++ {
		lens[i] = int(r.hdrs[i].n)
	}
	return n, err
}
