package wire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
)

// flakyConn fails every fourth write with a transient errno. Real
// socketpair sends almost never surface EAGAIN — the runtime's poller
// waits instead — so without injection the Flush backoff path (the one
// that drops the port lock mid-call) would go unexercised. It exposes
// no descriptor, so the port sends through the per-frame adapter.
type flakyConn struct {
	net.Conn
	n atomic.Uint64
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.n.Add(1)%4 == 0 {
		return 0, syscall.ENOBUFS
	}
	return c.Conn.Write(b)
}

// TestPortConcurrentStress hammers one wire.Port from many goroutines —
// Enqueue and concurrent Flushes with injected transient-errno backoff,
// Post/Poll, Reap, and a
// mid-run RX socket kill that forces a redial — then checks buffer
// conservation: every accepted TX buffer comes back through Reap exactly
// once, and the TX ledger accounts for every Enqueue call. Before the
// slot-reservation fix, a concurrent Enqueue could pass the capacity
// check while another slept in backoff with the lock released;
// pushInflight then overwrote the oldest in-flight record, leaking its
// buffer — this test fails on that build. Run it under -race.
func TestPortConcurrentStress(t *testing.T) {
	txNear, txFar, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	rxNear, rxFar, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}

	// The feeder's end of the RX wire is swapped when the port redials.
	var feedSide atomic.Value
	feedSide.Store(rxFar)

	cfg := Config{
		Name: "stress0",
		MTU:  1024,
		// Slow enough that pacing genuinely fills the TX ring (~32 µs per
		// frame), so capacity checks race with backoff sleeps — the window
		// the old overwrite bug needed.
		LinkGbps: 0.05,
		TXRing:   64,
		RXRing:   64,
		Redial: func() (net.Conn, error) {
			nr, nf, err := Socketpair()
			if err != nil {
				return nil, err
			}
			feedSide.Store(nf)
			return nr, nil
		},
	}
	p := NewPort(cfg, rxNear, &flakyConn{Conn: txNear})

	// Sink: drain the far TX end so kernel buffers never wedge writers.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := txFar.Read(buf); err != nil {
				return
			}
		}
	}()

	var stop, reapStop atomic.Bool
	var wgEnq, wgAux sync.WaitGroup
	var accepted, refused, reaped atomic.Uint64

	// Feeder: offer frames to the RX side; write errors are expected
	// around the redial window and simply retried on the new segment.
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		frame := testFrame(200, 5)
		for !stop.Load() {
			feedSide.Load().(net.Conn).Write(frame)
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Poster/poller: keep RX buffers posted and drain arrivals.
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		pkts := make([]*pktbuf.Packet, 16)
		descs := make([]nic.Descriptor, 16)
		pool := make([]*pktbuf.Packet, 0, 32)
		for i := 0; i < 32; i++ {
			pool = append(pool, testBuf())
		}
		for !stop.Load() {
			for len(pool) > 0 {
				if p.Post(pool[len(pool)-1]) != nil {
					break
				}
				pool = pool[:len(pool)-1]
			}
			n := p.Poll(nil, 0, 16, pkts, descs)
			pool = append(pool, pkts[:n]...)
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Free list shared by the enqueuers and the reaper. Capacity exceeds
	// the buffer population, so sends never block.
	freeCh := make(chan *pktbuf.Packet, 128)
	for i := 0; i < 96; i++ {
		freeCh <- testBuf()
	}
	for g := 0; g < 4; g++ {
		wgEnq.Add(1)
		go func(seed byte) {
			defer wgEnq.Done()
			small := testFrame(180, seed)
			big := testFrame(cfg.MTU+100, seed) // oversize for the 1024-byte MTU
			for i := 0; !stop.Load(); i++ {
				select {
				case b := <-freeCh:
					if seed == 3 && i%8 == 0 {
						b.SetFrame(big)
					} else {
						b.SetFrame(small)
					}
					if p.Enqueue(nil, b, 0) {
						accepted.Add(1)
						p.Flush()
					} else {
						refused.Add(1)
						freeCh <- b
					}
				default:
					runtime.Gosched()
				}
			}
		}(byte(g))
	}
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		out := make([]*pktbuf.Packet, 32)
		for !reapStop.Load() {
			n := p.Reap(0, out)
			for i := 0; i < n; i++ {
				freeCh <- out[i]
				out[i] = nil
			}
			reaped.Add(uint64(n))
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Mid-run chaos: kill the RX socket under the drain goroutine. The
	// port must redial and keep delivering off the fresh segment.
	time.Sleep(50 * time.Millisecond)
	rxNear.Close()
	waitCond(t, "RX redial", func() bool { return p.Reopens() >= 1 })
	deliveredAtRedial := p.RXStats().Delivered
	waitCond(t, "post-redial delivery", func() bool {
		return p.RXStats().Delivered > deliveredAtRedial
	})
	time.Sleep(50 * time.Millisecond)

	stop.Store(true)
	wgEnq.Wait()
	waitCond(t, "in-flight drain", func() bool { return p.InflightCount() == 0 })
	reapStop.Store(true)
	wgAux.Wait()

	if a, r := accepted.Load(), reaped.Load(); a != r {
		t.Fatalf("buffer conservation violated: %d accepted, %d reaped (leaked %d)", a, r, int64(a)-int64(r))
	}
	s := p.TXStats()
	if got, want := s.Sent+s.DropTransient+s.DropOversize+s.DropError+s.DropFull, accepted.Load()+refused.Load(); got != want {
		t.Fatalf("TX ledger %+v sums to %d, want %d (accepted %d + refused %d)",
			s, got, want, accepted.Load(), refused.Load())
	}
	if s.Sent == 0 || s.DropOversize == 0 {
		t.Fatalf("stress mix degenerate: %+v", s)
	}

	// Final hammer: operations racing Close must stay memory-safe. The
	// conservation checks are done, so leaks past this point don't matter.
	var wgClose sync.WaitGroup
	for g := 0; g < 3; g++ {
		wgClose.Add(1)
		go func(seed byte) {
			defer wgClose.Done()
			b := testBuf()
			frame := testFrame(120, seed)
			out := make([]*pktbuf.Packet, 8)
			pkts := make([]*pktbuf.Packet, 8)
			descs := make([]nic.Descriptor, 8)
			for i := 0; i < 200; i++ {
				b.SetFrame(frame)
				p.Enqueue(nil, b, 0)
				p.Flush()
				p.Reap(0, out)
				p.Poll(nil, 0, 8, pkts, descs)
				p.RXStats()
				p.TXStats()
				p.InflightCount()
			}
		}(byte(g))
	}
	time.Sleep(time.Millisecond)
	p.Close()
	wgClose.Wait()
}

// TestCrossFeedingPortsDoNotDeadlock drives two loopback ports that
// transmit into each other as fast as their TX rings allow, the way a
// generator and a mirroring DUT do. A send into a full datagram queue
// waits until the peer's drain reads; if Flush held the port lock
// across that send, each side's drain would wait on the lock its own
// blocked sender holds and neither send would ever complete.
func TestCrossFeedingPortsDoNotDeadlock(t *testing.T) {
	a, b, err := Loopback(Config{Name: "xa", TXRing: 512, RXRing: 64}, Config{Name: "xb", TXRing: 512, RXRing: 64})
	if err != nil {
		t.Fatal(err)
	}
	crossFeed(t, []*Port{a, b}, func() { a.Close(); b.Close() })
}

// TestCrossFeedingFanoutsDoNotDeadlock is the same with two 2-queue
// fanouts whose queues share one TX socket per side. While one queue
// waits in a send into the peer's full queue, it holds the socket's
// write lock; a sibling queue must wait for that lock without holding
// its own port lock, or the shared reader, delivering to the sibling,
// stalls and the peer's senders never drain.
func TestCrossFeedingFanoutsDoNotDeadlock(t *testing.T) {
	ab1, ab2, err := Socketpair() // A tx -> B rx
	if err != nil {
		t.Fatal(err)
	}
	ba1, ba2, err := Socketpair() // B tx -> A rx
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "xf", TXRing: 512, RXRing: 64}
	fa := NewFanout(cfg, 2, ba2, ab1)
	fb := NewFanout(cfg, 2, ab2, ba1)
	ports := []*Port{fa.Queue(0), fa.Queue(1), fb.Queue(0), fb.Queue(1)}
	crossFeed(t, ports, func() { fa.Close(); fb.Close() })
}

// crossFeed has every port transmit frames spread over many flows in
// 64-frame bursts — enqueue the burst, one Flush, reap all 64 — far more
// than a peer's datagram queue holds, and fails if they have not all
// finished within 30 s. closeAll runs once they have.
func crossFeed(t *testing.T, ports []*Port, closeAll func()) {
	t.Helper()
	const frames, burst = 20480, 64
	var wg sync.WaitGroup
	for _, p := range ports {
		wg.Add(1)
		go func(p *Port) {
			defer wg.Done()
			txs := make([]*pktbuf.Packet, burst)
			for i := range txs {
				txs[i] = testBuf()
			}
			reap := make([]*pktbuf.Packet, burst)
			for i := 0; i < frames; i += burst {
				for j, tx := range txs {
					tx.Reset(tx.OrigHeadroom())
					tx.SetFrame(flowFrame(uint16(i + j)))
					for !p.Enqueue(nil, tx, 0) {
						runtime.Gosched()
					}
				}
				p.Flush()
				for got := 0; got < burst; {
					n := p.Reap(0, reap)
					if got += n; n == 0 {
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		closeAll()
	case <-time.After(30 * time.Second):
		t.Fatal("cross-feeding ports wedged: Flush blocked in a send that the peer's drain never completes")
	}
}
