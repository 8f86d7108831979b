// Package wire is the repository's real packet I/O subsystem: a live
// NIC backend over datagram sockets implementing the same driver-facing
// nic.Port surface as the simulated adapter (capture codecs live in the
// wire/pcapio subpackage). Everything above the port seam — the DPDK
// PMD, the metadata bindings, fault injection, telemetry — runs
// unchanged on either backend; this package is the device boundary the
// paper's X-Change argument is about.
//
// The port itself: a nic.Port whose RX and TX sides are datagram
// sockets instead of the simulated MAC. A background reader drains the
// RX socket into a fixed ring of preallocated MTU-sized slots — like a
// hardware FIFO, frames wait there until the driver polls, and overflow
// is dropped with a counter, never buffered without bound. Enqueue only
// stages a frame; Flush, the TX doorbell the driver rings once per
// burst, sends the staged frames with one batched write, and the reader
// takes as many frames as are queued with one batched read (batch.go).
// The driver side (Poll/Post/Enqueue/Flush/Reap) is mutex-guarded,
// allocation-free in steady state, and charges nothing to the simulated
// memory hierarchy: on a live wire the cycle ledger measures only what
// the host actually does.
package wire

import (
	"errors"
	"math"
	"net"
	"sync"
	"syscall"
	"time"

	"packetmill/internal/machine"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
)

// Config shapes one live port.
type Config struct {
	// Name labels the port in telemetry reports.
	Name string
	// Queue is the queue index reported to the driver (default 0).
	Queue int
	// LinkGbps paces transmission: each frame occupies the emulated wire
	// for (len+20)*8/LinkGbps ns of wall-clock time, which delays buffer
	// reclamation exactly as a real serializer would. 0 means 10 Gbps.
	LinkGbps float64
	// MTU is the largest frame the port accepts, RX slot size included.
	// Larger TX frames are dropped with accounting. 0 means 2048.
	MTU int
	// RXRing/TXRing bound the descriptor rings (0 means 256).
	RXRing, TXRing int
	// Redial, when set, reopens the RX socket after repeated read
	// errors: the old conn is closed and the returned one takes its
	// place — the self-healing path for a peer that restarted.
	Redial func() (net.Conn, error)
}

func (c *Config) fill() {
	if c.Name == "" {
		c.Name = "wire0"
	}
	if c.LinkGbps == 0 {
		c.LinkGbps = 10
	}
	if c.MTU == 0 {
		c.MTU = 2048
	}
	if c.RXRing == 0 {
		c.RXRing = 256
	}
	if c.TXRing == 0 {
		c.TXRing = 256
	}
}

// ring is a fixed-capacity FIFO. Fixed so the hot path never grows a
// slice; indices wrap by comparison rather than division.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// peek returns the i-th oldest entry without removing it.
func (r *ring[T]) peek(i int) T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// txRec is one in-flight transmission: the buffer the driver lent the
// port and the wall-clock instant its frame has fully left the wire.
type txRec struct {
	pkt        *pktbuf.Packet
	departWall time.Time
}

// Port is a live queue pair over datagram sockets. It implements
// nic.Port, so internal/dpdk, the metadata bindings, fault injection,
// and telemetry drive it exactly as they drive the simulated adapter.
//
// Lock discipline: mu guards the rings and counters and is never held
// across a syscall. txMu serializes flushers and is taken before mu.
type Port struct {
	cfg    Config
	rxConn net.Conn
	txConn net.Conn
	tx     frameWriter // batched writer over txConn; nil without one

	mu sync.Mutex
	rx frameReader // batched reader over rxConn, swapped with it on redial
	// RX: slots[i][:slotLen[i]] holds a received frame when i sits in
	// filled; free holds the rest. posted queues driver buffers.
	slots   [][]byte
	slotLen []int
	free    ring[int]
	filled  ring[int]
	posted  ring[*pktbuf.Packet]
	// TX: staged holds the frames Enqueue accepted since a Flush last
	// took the batch. txPending counts them plus the batch a Flush is
	// still sending; capacity checks use inflight.n+txPending, so every
	// accepted frame has an in-flight record waiting for it. inflight
	// holds sent (or dropped) buffers until their wall-clock departure.
	staged     []*pktbuf.Packet
	txPending  int
	inflight   ring[txRec]
	lastDepart time.Time

	rxStats nic.RXQueueStats
	txStats nic.TXQueueStats
	reopens uint64

	closed bool
	done   chan struct{}

	// txMu is held by the one flusher sending; batch (the staged slice it
	// took, swapped back as the next staging slice) and frames are its.
	txMu   sync.Mutex
	batch  []*pktbuf.Packet
	frames [][]byte
}

// txMaxRetries bounds the in-place retries a transient TX errno gets
// before the frame is booked under the transient-drop counter; the
// first retry waits txBackoff and each further one twice as long.
const (
	txMaxRetries = 3
	txBackoff    = 50 * time.Microsecond
)

// isTransient classifies the errnos a loaded-but-alive socket returns —
// would-block (EAGAIN) and kernel buffer exhaustion (ENOBUFS/ENOMEM) —
// which deserve a bounded retry rather than an immediate drop. Anything
// else (peer gone, fd closed) is a hard error.
func isTransient(err error) bool {
	return errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EWOULDBLOCK) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.ENOMEM)
}

var _ nic.Port = (*Port)(nil)

// NewPort wraps a receive and a transmit socket as a driver-facing port
// and starts the RX drain goroutine. Either conn may be nil for a
// one-directional port (capture-only, replay-only).
func NewPort(cfg Config, rxConn, txConn net.Conn) *Port {
	cfg.fill()
	p := &Port{
		cfg:      cfg,
		rxConn:   rxConn,
		txConn:   txConn,
		slots:    make([][]byte, cfg.RXRing),
		slotLen:  make([]int, cfg.RXRing),
		free:     newRing[int](cfg.RXRing),
		filled:   newRing[int](cfg.RXRing),
		posted:   newRing[*pktbuf.Packet](cfg.RXRing),
		staged:   make([]*pktbuf.Packet, 0, cfg.TXRing),
		inflight: newRing[txRec](cfg.TXRing),
		batch:    make([]*pktbuf.Packet, 0, cfg.TXRing),
		frames:   make([][]byte, cfg.TXRing),
		done:     make(chan struct{}),
	}
	for i := range p.slots {
		p.slots[i] = make([]byte, cfg.MTU)
		p.free.push(i)
	}
	if txConn != nil {
		p.tx = newFrameWriter(txConn, cfg.TXRing)
	}
	if rxConn != nil {
		p.rx = newFrameReader(rxConn, cfg.RXRing)
		go p.drainRX()
	} else {
		close(p.done)
	}
	return p
}

// drainRX moves frames from the socket into ring slots. Each wake it
// claims every free slot under the lock, reads as many frames as are
// queued into them with one batched read outside it (so Poll never
// waits on the kernel), and files the results. With the ring full it
// still reads — one frame into a sacrificial slot — so the socket
// buffer cannot silently absorb the overrun; the drop is counted where
// a NIC would count it.
//
// Claiming peeks rather than pops: this goroutine is the only consumer
// of free on a port with its own reader (deliver serves reader-less
// Fanout queues), and Poll only appends, so after the read the claimed
// slots are still the oldest entries, in order.
func (p *Port) drainRX() {
	defer close(p.done)
	scratch := [][]byte{make([]byte, p.cfg.MTU)}
	bufs := make([][]byte, p.cfg.RXRing)
	lens := make([]int, p.cfg.RXRing)
	consecErrs := 0
	for {
		p.mu.Lock()
		claimed := p.free.n
		for i := 0; i < claimed; i++ {
			bufs[i] = p.slots[p.free.peek(i)]
		}
		closed := p.closed
		rd := p.rx // snapshot: Redial may swap the field under the lock
		p.mu.Unlock()
		if closed {
			return
		}
		in := bufs[:claimed]
		if claimed == 0 {
			in = scratch
		}
		n, err := rd.readBatch(in, lens)
		if err != nil {
			if p.readFailed(&consecErrs) {
				return
			}
			continue
		}
		consecErrs = 0
		p.mu.Lock()
		if claimed == 0 {
			p.fileOverrun(scratch[0][:lens[0]])
		} else {
			for _, l := range lens[:n] {
				slot := p.free.pop()
				if l < nic.MinFrameSize {
					p.rxStats.DropRunt++
					p.free.push(slot)
				} else {
					p.fileSlot(slot, l)
				}
			}
		}
		p.mu.Unlock()
	}
}

// readFailed handles a failed RX read and reports whether the port is
// closed. While the socket misbehaves it backs off, then escalates to a
// reopen once the errors look persistent.
func (p *Port) readFailed(consecErrs *int) (closed bool) {
	p.mu.Lock()
	closed = p.closed
	p.mu.Unlock()
	if closed {
		return true
	}
	*consecErrs++
	readBackoff(*consecErrs)
	if p.cfg.Redial == nil || *consecErrs < 3 {
		return false
	}
	nc, err := p.cfg.Redial()
	if err != nil {
		return false
	}
	rd := newFrameReader(nc, p.cfg.RXRing)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.Close()
		return true
	}
	old := p.rxConn
	p.rxConn, p.rx = nc, rd
	p.reopens++
	p.mu.Unlock()
	old.Close()
	*consecErrs = 0
	return false
}

// readBackoff sleeps after the consecErrs-th read error in a row: a
// linear ramp, capped, so a dead peer doesn't spin a reader flat out.
func readBackoff(consecErrs int) {
	d := time.Duration(consecErrs) * 100 * time.Microsecond
	if d > 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	time.Sleep(d)
}

// fileOverrun books a frame read while the ring was full: dropped,
// unless a poll freed a slot while the read waited on the socket, in
// which case the frame found room after all.
func (p *Port) fileOverrun(frame []byte) {
	switch {
	case p.free.n == 0:
		p.rxStats.DropFull++
	case len(frame) < nic.MinFrameSize:
		p.rxStats.DropRunt++
	default:
		slot := p.free.pop()
		p.fileSlot(slot, copy(p.slots[slot], frame))
	}
}

// fileSlot queues slot, holding an n-byte frame, for the driver.
func (p *Port) fileSlot(slot, n int) {
	p.slotLen[slot] = n
	p.filled.push(slot)
	p.rxStats.Delivered++
	p.rxStats.Bytes += uint64(n)
}

// deliver files one received frame into a free RX slot, with the same
// accounting the drain goroutine performs — the entry point a Fanout
// reader uses for queue ports that share a single socket and so run no
// reader of their own. The frame is copied; the caller keeps its buffer.
func (p *Port) deliver(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	switch {
	case len(frame) < nic.MinFrameSize:
		p.rxStats.DropRunt++
	case p.free.n == 0:
		p.rxStats.DropFull++
	default:
		slot := p.free.pop()
		p.fileSlot(slot, copy(p.slots[slot], frame))
	}
}

// Close shuts both sockets and stops the drain goroutine.
func (p *Port) Close() error {
	p.mu.Lock()
	p.closed = true
	rx, tx := p.rxConn, p.txConn
	p.mu.Unlock()
	var err error
	if rx != nil {
		err = rx.Close()
	}
	if tx != nil {
		if e := tx.Close(); err == nil {
			err = e
		}
	}
	<-p.done
	return err
}

// Reopens reports how many times the RX socket was redialed after
// persistent read errors.
func (p *Port) Reopens() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reopens
}

// PortName implements nic.Port.
func (p *Port) PortName() string { return p.cfg.Name }

// QueueID implements nic.Port.
func (p *Port) QueueID() int { return p.cfg.Queue }

// RXRingSize implements nic.Port.
func (p *Port) RXRingSize() int { return p.cfg.RXRing }

// TXRingSize implements nic.Port.
func (p *Port) TXRingSize() int { return p.cfg.TXRing }

// Post hands a fresh buffer to the RX ring.
func (p *Port) Post(pkt *pktbuf.Packet) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Unlike the simulated queue, pending frames hold ring *slots*, not
	// posted buffers — a buffer can always be posted against a parked
	// frame, so only the posted queue itself is bounded.
	if p.posted.n >= p.cfg.RXRing {
		return nic.ErrOverPosted
	}
	p.posted.push(pkt)
	return nil
}

// PostedCount implements nic.Port.
func (p *Port) PostedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.posted.n
}

// PendingCount reports frames sitting in the RX ring awaiting a poll.
func (p *Port) PendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.filled.n
}

// NextReadyNS returns -Inf when frames are pending — a live arrival is
// never in the simulated future — and +Inf when the ring is empty, so
// the driver's empty-poll fast path works unchanged.
func (p *Port) NextReadyNS() float64 {
	p.mu.Lock()
	n := p.filled.n
	p.mu.Unlock()
	if n > 0 {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// Poll pops up to max received frames into posted buffers. Unlike the
// simulated queue there is no CQE charge: the host really did the work,
// and the cycle ledger should not double-count it.
func (p *Port) Poll(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < max && p.filled.n > 0 && p.posted.n > 0 {
		slot := p.filled.pop()
		pkt := p.posted.pop()
		frame := p.slots[slot][:p.slotLen[slot]]
		pkt.SetFrame(frame)
		pkt.ArrivalNS = nowNS
		pkts[n] = pkt
		descs[n] = nic.Descriptor{
			Len:     len(frame),
			Queue:   p.cfg.Queue,
			RSSHash: nic.HashFrame(frame),
			VlanTCI: nic.FrameVlanTCI(frame),
		}
		p.free.push(slot)
		n++
	}
	return n
}

// PollCompressed implements nic.Port; the live backend has no CQE
// format, so it is plain Poll.
func (p *Port) PollCompressed(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	return p.Poll(core, nowNS, max, pkts, descs)
}

// Enqueue stages the frame for the next Flush and reserves its
// in-flight record; it never touches the socket. The link-rate pacing
// Flush applies delays only *buffer reclamation* — the datagram itself
// leaves at once — which is the part of serialization the driver can
// observe: TX-ring backpressure.
func (p *Port) Enqueue(core *machine.Core, pkt *pktbuf.Packet, nowNS float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inflight.n+p.txPending >= p.cfg.TXRing {
		p.txStats.DropFull++
		return false
	}
	if pkt.Len() > p.cfg.MTU {
		// Oversize for the emulated link: dropped on the wire, but the
		// buffer still cycles back through Reap immediately.
		p.txStats.DropOversize++
		p.inflight.push(txRec{pkt: pkt, departWall: time.Now()})
		return true
	}
	p.staged = append(p.staged, pkt)
	p.txPending++
	return true
}

// Flush implements nic.Port: the TX doorbell. It sends every frame
// staged before the call, in order, one batched write per batch, and
// books each as sent (reclaimed at its paced departure) or dropped
// (reclaimed at once). The lock is held only to take the batch and to
// book results, never across the write, so the RX drain and Poll keep
// moving while a full peer queue blocks it.
func (p *Port) Flush() {
	p.txMu.Lock()
	defer p.txMu.Unlock()
	p.mu.Lock()
	batch := p.staged
	p.staged, p.batch = p.batch[:0], batch
	p.mu.Unlock()
	frames := p.frames[:len(batch)]
	for i, pkt := range batch {
		frames[i] = pkt.Bytes()
	}
	attempt := 0 // retries of batch[off], the frame the last write stopped at
	for off := 0; off < len(batch); {
		n, err := len(batch)-off, error(nil)
		if p.tx != nil {
			n, err = p.tx.writeBatch(frames[off:])
		}
		p.mu.Lock()
		now := time.Now()
		for _, pkt := range batch[off : off+n] {
			p.bookSent(pkt, now)
		}
		p.txPending -= n
		if off += n; n > 0 {
			attempt = 0
		}
		if err != nil {
			if isTransient(err) && attempt < txMaxRetries && !p.closed {
				// Transient errno (EAGAIN/ENOBUFS): bounded doubling
				// backoff, lock released so Poll/Reap keep moving.
				p.mu.Unlock()
				time.Sleep(txBackoff << attempt)
				attempt++
				continue
			}
			// A transient errno that survived the retries is the kernel
			// buffer overrunning; a hard error is the peer overrun or
			// gone. Distinct counters so dashboards can tell congestion
			// from breakage, and neither shares DropFull, which counts
			// refusals, not losses. Either way the buffer cycles back via
			// Reap.
			if isTransient(err) {
				p.txStats.DropTransient++
			} else {
				p.txStats.DropError++
			}
			p.inflight.push(txRec{pkt: batch[off], departWall: now})
			p.txPending--
			off++
			attempt = 0
		}
		p.mu.Unlock()
	}
	clear(batch)
	clear(frames)
}

// bookSent records a frame the socket took: it departs one serialization
// time after the later of now and the previous frame's departure.
func (p *Port) bookSent(pkt *pktbuf.Packet, now time.Time) {
	wire := time.Duration(float64(pkt.Len()+20) * 8 / p.cfg.LinkGbps) // ns
	start := now
	if p.lastDepart.After(start) {
		start = p.lastDepart
	}
	p.lastDepart = start.Add(wire)
	p.inflight.push(txRec{pkt: pkt, departWall: p.lastDepart})
	p.txStats.Sent++
	p.txStats.Bytes += uint64(pkt.Len())
}

// Reap returns buffers whose frames have departed. Departure is wall
// clock — nowNS is the caller's simulated clock and does not apply to a
// live wire — so a driver spinning on Reap sees buffers come back at
// the emulated link rate.
func (p *Port) Reap(nowNS float64, out []*pktbuf.Packet) int {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(out) && p.inflight.n > 0 && !p.inflight.peek(0).departWall.After(now) {
		out[n] = p.inflight.pop().pkt
		n++
	}
	return n
}

// InflightCount implements nic.Port: frames staged or being sent count
// too, since their buffers are the port's until Reap returns them.
func (p *Port) InflightCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight.n + p.txPending
}

// HeldCount implements nic.Port. Pending frames wait in the port's own
// slots and take a buffer only at Poll, so they hold none.
func (p *Port) HeldCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.posted.n + p.inflight.n + p.txPending
}

// RXStats implements nic.Port.
func (p *Port) RXStats() nic.RXQueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rxStats
}

// TXStats implements nic.Port.
func (p *Port) TXStats() nic.TXQueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txStats
}
