// Fanout: demultiplexing one receive socket into N per-core queue ports
// — the software equivalent of RSS (or Linux's PACKET_FANOUT_CPU) for a
// wire backend whose peer speaks to a single address. One reader
// goroutine drains the shared socket, hashes each frame with the same
// flow hash the simulated adapter uses (nic.HashFrame), and files it
// into the owning core's RX ring through a bucket→queue indirection
// table. The table gives the fallback the run-to-completion model needs
// for skewed traffic: when one queue's load runs far ahead of the rest,
// hot-but-movable buckets migrate to the coldest queue, so a single
// elephant flow keeps its queue (and its frame ordering) while every
// other flow drains off it.
//
// The transmit side needs no demux: every queue port flushes into the
// shared TX socket directly — datagram writes are atomic, and each queue
// keeps its own batch writer, pacing clock and in-flight ring, like
// per-queue TX rings on one physical link.
package wire

import (
	"net"
	"sync"
	"sync/atomic"

	"packetmill/internal/nic"
)

const (
	// FanoutBuckets is the indirection-table size (a power of two, like a
	// hardware RSS RETA). 256 entries keep per-bucket load visible even
	// with few flows.
	FanoutBuckets = 256
	// FanoutWindow is how many frames the reader observes between
	// rebalance decisions.
	FanoutWindow = 4096
	// fanoutMaxMoves bounds bucket migrations per window so the table
	// converges gradually instead of thrashing flows across cores.
	fanoutMaxMoves = 4
)

// Fanout owns the shared sockets and the per-core queue ports. Create
// with NewFanout, hand Queue(i) to core i's PMD, and Close once — the
// queue ports must not be closed individually.
type Fanout struct {
	cfg    Config
	txConn net.Conn
	queues []*Port
	done   chan struct{}

	mu      sync.Mutex // guards rxConn and rx (redial swaps them) and closed
	rxConn  net.Conn
	rx      frameReader
	closed  bool
	reopens uint64

	// Reader-owned state: the indirection table and the per-bucket load
	// window. Only the reader goroutine touches these, so the hot path
	// takes no lock and shares no cache line with the cores.
	table   [FanoutBuckets]int
	bucketN [FanoutBuckets]uint32
	loads   []uint64

	// OnMove, when set before traffic starts, observes every rebalance
	// migration (bucket b moved from queue `from` to queue `to`). It is
	// invoked on the reader goroutine between windows — flow-affine
	// state planes (conntrack) hang their migration mailbox here so a
	// moved bucket's flows follow it to the new owning core. It must
	// not block: the reader is the shared RX path.
	OnMove func(bucket, from, to int)

	rebalances atomic.Uint64
}

// NewFanout builds n queue ports demuxed from rxConn and starts the
// reader. cfg applies to every queue (cfg.Queue is overridden with the
// queue index). txConn may be nil for a receive-only fanout; rxConn may
// be nil for a transmit-only one (no reader runs).
func NewFanout(cfg Config, n int, rxConn, txConn net.Conn) *Fanout {
	cfg.fill()
	if n < 1 {
		n = 1
	}
	f := &Fanout{
		cfg:    cfg,
		rxConn: rxConn,
		txConn: txConn,
		done:   make(chan struct{}),
		loads:  make([]uint64, n),
	}
	for q := 0; q < n; q++ {
		qcfg := cfg
		qcfg.Queue = q
		qcfg.Redial = nil // redial belongs to the shared reader, not a queue
		f.queues = append(f.queues, NewPort(qcfg, nil, txConn))
	}
	// Static spread to start, like a freshly programmed RETA.
	for b := range f.table {
		f.table[b] = b % n
	}
	if rxConn != nil {
		f.rx = newFrameReader(rxConn, cfg.RXRing)
		go f.run()
	} else {
		close(f.done)
	}
	return f
}

// Queue returns queue port i — hand it to core i's PMD.
func (f *Fanout) Queue(i int) *Port { return f.queues[i] }

// NumQueues reports the fanout width.
func (f *Fanout) NumQueues() int { return len(f.queues) }

// Rebalances counts bucket migrations the skew fallback performed.
func (f *Fanout) Rebalances() uint64 { return f.rebalances.Load() }

// Reopens reports how many times the shared RX socket was redialed.
func (f *Fanout) Reopens() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reopens
}

// Close stops the reader, closes the shared sockets, and closes every
// queue port.
func (f *Fanout) Close() error {
	f.mu.Lock()
	f.closed = true
	rx := f.rxConn
	f.mu.Unlock()
	var err error
	if rx != nil {
		err = rx.Close()
	}
	<-f.done
	for i, q := range f.queues {
		// Every queue shares txConn; the first Close closes it and the
		// rest see an already-closed conn, which is fine.
		if e := q.Close(); err == nil && i == 0 {
			err = e
		}
	}
	return err
}

// run is the reader: drain the shared socket, hash, demux, rebalance.
// Each wake takes every queued frame, up to one queue's ring, with one
// batched read, then files them one by one.
func (f *Fanout) run() {
	defer close(f.done)
	bufs := make([][]byte, f.cfg.RXRing)
	for i := range bufs {
		bufs[i] = make([]byte, f.cfg.MTU)
	}
	lens := make([]int, len(bufs))
	consecErrs := 0
	window := 0
	for {
		f.mu.Lock()
		rd := f.rx
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return
		}
		n, err := rd.readBatch(bufs, lens)
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return
			}
			// Same backoff and redial escalation as a Port's own drain
			// goroutine (see Port.readFailed).
			consecErrs++
			readBackoff(consecErrs)
			if f.cfg.Redial != nil && consecErrs >= 3 {
				if nc, rerr := f.cfg.Redial(); rerr == nil {
					rd := newFrameReader(nc, f.cfg.RXRing)
					f.mu.Lock()
					if f.closed {
						f.mu.Unlock()
						nc.Close()
						return
					}
					old := f.rxConn
					f.rxConn, f.rx = nc, rd
					f.reopens++
					f.mu.Unlock()
					old.Close()
					consecErrs = 0
				}
			}
			continue
		}
		consecErrs = 0
		for i := 0; i < n; i++ {
			frame := bufs[i][:lens[i]]
			b := nic.HashFrame(frame) & (FanoutBuckets - 1)
			f.bucketN[b]++
			f.queues[f.table[b]].deliver(frame)
			if window++; window >= FanoutWindow {
				window = 0
				f.rebalance()
			}
		}
	}
}

// rebalance is the skew fallback, run once per observation window on the
// reader goroutine. When the hottest queue's load exceeds its fair share
// by 25%, up to fanoutMaxMoves buckets migrate from it to the coldest
// queue — always the largest bucket that fits in half the gap, so a move
// shrinks the imbalance instead of inverting it. A bucket carrying a
// single elephant flow never qualifies (it IS the gap); the mice migrate
// off its queue instead, which is the best a flow-affine demux can do.
func (f *Fanout) rebalance() {
	n := len(f.queues)
	if n > 1 {
		for i := range f.loads {
			f.loads[i] = 0
		}
		var total uint64
		for b, q := range f.table {
			f.loads[q] += uint64(f.bucketN[b])
			total += uint64(f.bucketN[b])
		}
		for move := 0; move < fanoutMaxMoves && total > 0; move++ {
			qMax, qMin := 0, 0
			for q := 1; q < n; q++ {
				if f.loads[q] > f.loads[qMax] {
					qMax = q
				}
				if f.loads[q] < f.loads[qMin] {
					qMin = q
				}
			}
			// Within 25% of the fair share: balanced enough.
			if 4*f.loads[qMax]*uint64(n) <= 5*total {
				break
			}
			gap := f.loads[qMax] - f.loads[qMin]
			best, bestN := -1, uint64(0)
			for b := range f.table {
				if f.table[b] != qMax {
					continue
				}
				if c := uint64(f.bucketN[b]); c > bestN && c <= gap/2 {
					best, bestN = b, c
				}
			}
			if best < 0 {
				break
			}
			f.table[best] = qMin
			f.loads[qMax] -= bestN
			f.loads[qMin] += bestN
			f.rebalances.Add(1)
			if f.OnMove != nil {
				f.OnMove(best, qMax, qMin)
			}
		}
	}
	for b := range f.bucketN {
		f.bucketN[b] = 0
	}
}
