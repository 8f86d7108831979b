package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
)

func testBuf() *pktbuf.Packet {
	return pktbuf.NewPacket(make([]byte, 2300), 0, 128)
}

func testFrame(n int, seed byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = seed + byte(i)
	}
	f[12], f[13] = 0x08, 0x00
	return f
}

// waitPending spins until the port has at least n frames pending or the
// deadline passes.
func waitPending(t *testing.T, p *Port, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.PendingCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending frames (have %d)", n, p.PendingCount())
		}
		runtime.Gosched()
	}
}

// waitCond spins until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestLoopbackRoundTrip(t *testing.T) {
	a, b, err := Loopback(Config{Name: "wireA"}, Config{Name: "wireB"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	for i := 0; i < 4; i++ {
		if err := b.Post(testBuf()); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	frame := testFrame(100, 7)
	tx := testBuf()
	tx.SetFrame(frame)
	if !a.Enqueue(nil, tx, 0) {
		t.Fatal("Enqueue refused")
	}
	a.Flush()
	waitPending(t, b, 1)

	if b.NextReadyNS() > 0 {
		t.Fatal("NextReadyNS should be -Inf with a frame pending")
	}
	pkts := make([]*pktbuf.Packet, 8)
	descs := make([]nic.Descriptor, 8)
	n := b.Poll(nil, 42, 8, pkts, descs)
	if n != 1 {
		t.Fatalf("Poll = %d, want 1", n)
	}
	if !bytes.Equal(pkts[0].Bytes(), frame) {
		t.Fatal("received frame differs from transmitted")
	}
	if pkts[0].ArrivalNS != 42 {
		t.Fatalf("ArrivalNS = %v, want the poll time", pkts[0].ArrivalNS)
	}
	if descs[0].Len != len(frame) || descs[0].RSSHash != nic.HashFrame(frame) {
		t.Fatal("descriptor not derived from the frame")
	}
	if b.NextReadyNS() < 0 {
		t.Fatal("NextReadyNS should be +Inf when drained")
	}

	// The TX buffer comes back once its wall-clock serialization ends.
	reap := make([]*pktbuf.Packet, 4)
	waitCond(t, "TX reap", func() bool { return a.Reap(0, reap) == 1 })
	if reap[0] != tx {
		t.Fatal("reaped a different buffer than was enqueued")
	}
	if s := a.TXStats(); s.Sent != 1 || s.Bytes != uint64(len(frame)) {
		t.Fatalf("TXStats = %+v", s)
	}
	if s := b.RXStats(); s.Delivered != 1 || s.Bytes != uint64(len(frame)) {
		t.Fatalf("RXStats = %+v", s)
	}
}

// TestRXOverrun fills the RX ring with no posted buffers: the ring holds
// ring-size frames (a hardware FIFO) and drops the rest with a counter.
func TestRXOverrun(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{RXRing: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const sent = 10
	for i := 0; i < sent; i++ {
		tx := testBuf()
		tx.SetFrame(testFrame(80, byte(i)))
		if !a.Enqueue(nil, tx, 0) {
			t.Fatalf("Enqueue %d refused", i)
		}
		a.Flush()
		reap := make([]*pktbuf.Packet, 1)
		waitCond(t, "reap", func() bool { return a.Reap(0, reap) == 1 })
	}
	waitCond(t, "all frames accounted", func() bool {
		s := b.RXStats()
		return s.Delivered+s.DropFull == sent
	})
	s := b.RXStats()
	if s.Delivered != 4 || s.DropFull != sent-4 {
		t.Fatalf("Delivered=%d DropFull=%d, want 4 and %d", s.Delivered, s.DropFull, sent-4)
	}

	// The parked frames are still there: post buffers and poll them out.
	for i := 0; i < 4; i++ {
		if err := b.Post(testBuf()); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	pkts := make([]*pktbuf.Packet, 8)
	descs := make([]nic.Descriptor, 8)
	if n := b.Poll(nil, 0, 8, pkts, descs); n != 4 {
		t.Fatalf("Poll = %d, want 4", n)
	}
}

func TestRuntDropped(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := b.Post(testBuf()); err != nil {
		t.Fatal(err)
	}
	// Bypass Enqueue (which would be within its rights to refuse a runt)
	// and write the short datagram straight onto the wire.
	if _, err := a.txConn.Write(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "runt drop", func() bool { return b.RXStats().DropRunt == 1 })
	if b.PendingCount() != 0 {
		t.Fatal("runt should not occupy the ring")
	}
}

// TestOversizeTXRecycles: a frame over the MTU is dropped on the wire but
// its buffer still comes back through Reap, so the pool cannot leak. The
// drop is booked under its own oversize counter — a configuration error,
// not ring congestion.
func TestOversizeTXRecycles(t *testing.T) {
	a, b, err := Loopback(Config{MTU: 256}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	tx := testBuf()
	tx.SetFrame(testFrame(300, 1))
	if !a.Enqueue(nil, tx, 0) {
		t.Fatal("oversize Enqueue should accept and drop")
	}
	a.Flush()
	if s := a.TXStats(); s.DropOversize != 1 || s.DropFull != 0 || s.Sent != 0 {
		t.Fatalf("TXStats = %+v, want one oversize drop and no send", s)
	}
	reap := make([]*pktbuf.Packet, 1)
	waitCond(t, "oversize reap", func() bool { return a.Reap(0, reap) == 1 })
	if reap[0] != tx {
		t.Fatal("oversize buffer not recycled")
	}
}

// TestTXRingBackpressure: with a glacial link rate the ring fills and
// Enqueue refuses, exactly like the simulated queue.
func TestTXRingBackpressure(t *testing.T) {
	a, b, err := Loopback(Config{TXRing: 2, LinkGbps: 1e-6}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	for i := 0; i < 2; i++ {
		tx := testBuf()
		tx.SetFrame(testFrame(80, byte(i)))
		if !a.Enqueue(nil, tx, 0) {
			t.Fatalf("Enqueue %d refused with ring space", i)
		}
	}
	a.Flush()
	tx := testBuf()
	tx.SetFrame(testFrame(80, 9))
	if a.Enqueue(nil, tx, 0) {
		t.Fatal("Enqueue accepted into a full ring")
	}
	if a.TXStats().DropFull != 1 {
		t.Fatal("ring-full drop not counted")
	}
	if a.InflightCount() != 2 {
		t.Fatalf("InflightCount = %d, want 2", a.InflightCount())
	}
}

// TestSteadyStateRXAllocs is the live backend's zero-allocation gate:
// once the rings are primed, a full burst cycle — enqueue, one Flush
// (one batched send), batched drain, poll, repost, reap — must not
// allocate; the only allocations belong to setup and refill.
func TestSteadyStateRXAllocs(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const burst = 8
	txs := make([]*pktbuf.Packet, burst)
	for i := range txs {
		if err := b.Post(testBuf()); err != nil {
			t.Fatal(err)
		}
		txs[i] = testBuf()
		txs[i].SetFrame(testFrame(128, byte(i)))
	}
	pkts := make([]*pktbuf.Packet, burst)
	descs := make([]nic.Descriptor, burst)
	reap := make([]*pktbuf.Packet, burst)

	cycle := func() {
		for _, tx := range txs {
			if !a.Enqueue(nil, tx, 0) {
				t.Fatal("Enqueue refused")
			}
		}
		a.Flush()
		for got := 0; got < burst; {
			n := b.Poll(nil, 0, burst-got, pkts, descs)
			for _, p := range pkts[:n] {
				if err := b.Post(p); err != nil { // refill
					t.Fatal(err)
				}
			}
			if got += n; n == 0 {
				runtime.Gosched()
			}
		}
		for got := 0; got < burst; {
			n := a.Reap(0, reap)
			if got += n; n == 0 {
				runtime.Gosched()
			}
		}
	}
	for i := 0; i < 50; i++ { // warm up socket buffers and runtime paths
		cycle()
	}
	avg := testing.AllocsPerRun(200, cycle)
	if avg > 0 {
		t.Fatalf("steady-state burst cycle allocates %.2f objects/run, want 0", avg)
	}
}

// TestPostedFIFO: posted buffers are handed out in the order they were
// posted, across ring wrap-around, and a post/deliver/poll cycle
// allocates nothing.
func TestPostedFIFO(t *testing.T) {
	const ring = 8
	p := NewPort(Config{RXRing: ring}, nil, nil)
	defer p.Close()
	bufs := make([]*pktbuf.Packet, ring)
	for i := range bufs {
		bufs[i] = testBuf()
	}
	frame := testFrame(64, 1)
	pkts := make([]*pktbuf.Packet, ring)
	descs := make([]nic.Descriptor, ring)
	next := 0 // index of the buffer the next Poll must return
	cycle := func(k int) {
		// Post k buffers in rotation, so the posted ring's head keeps
		// moving and wraps.
		for i := 0; i < k; i++ {
			if err := p.Post(bufs[(next+i)%ring]); err != nil {
				t.Fatal(err)
			}
			p.deliver(frame)
		}
		if n := p.Poll(nil, 0, ring, pkts, descs); n != k {
			t.Fatalf("Poll = %d, want %d", n, k)
		}
		for i := 0; i < k; i++ {
			if pkts[i] != bufs[(next+i)%ring] {
				t.Fatalf("poll %d returned buffer out of post order", i)
			}
		}
		next = (next + k) % ring
	}
	for k := 1; k <= ring; k++ {
		cycle(k)
		cycle(ring - k + 1)
	}
	if avg := testing.AllocsPerRun(100, func() { cycle(5) }); avg > 0 {
		t.Fatalf("post/deliver/poll allocates %.2f objects/run, want 0", avg)
	}
}

// TestFlushIsTheDoorbell: Enqueue only stages; nothing reaches the peer
// until Flush, which sends the staged frames in order.
func TestFlushIsTheDoorbell(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	const burst = 16
	for i := 0; i < burst; i++ {
		if err := b.Post(testBuf()); err != nil {
			t.Fatal(err)
		}
		tx := testBuf()
		tx.SetFrame(testFrame(100, byte(i)))
		if !a.Enqueue(nil, tx, 0) {
			t.Fatalf("Enqueue %d refused", i)
		}
	}
	if got := a.InflightCount(); got != burst {
		t.Fatalf("InflightCount = %d with %d staged, want %d", got, burst, burst)
	}
	time.Sleep(20 * time.Millisecond) // ample time for a frame to cross
	if s := b.RXStats(); s.Delivered != 0 || a.TXStats().Sent != 0 {
		t.Fatalf("frames reached the wire before Flush: peer %+v, sender %+v", s, a.TXStats())
	}
	a.Flush()
	if s := a.TXStats(); s.Sent != burst {
		t.Fatalf("after Flush TXStats = %+v, want %d sent", s, burst)
	}
	waitPending(t, b, burst)
	pkts := make([]*pktbuf.Packet, burst)
	descs := make([]nic.Descriptor, burst)
	if n := b.Poll(nil, 0, burst, pkts, descs); n != burst {
		t.Fatalf("Poll = %d, want %d", n, burst)
	}
	for i, p := range pkts {
		if !bytes.Equal(p.Bytes(), testFrame(100, byte(i))) {
			t.Fatalf("frame %d out of order or corrupted", i)
		}
	}
}

// TestFlushIntoFullPeer: a 64-frame Flush into a peer that reads slowly
// — its datagram queue holds only a few frames (net.unix.max_dgram_qlen
// is 10 on many hosts) — waits for room instead of failing, and
// completes with every frame sent, in order, while the peer drains.
func TestFlushIntoFullPeer(t *testing.T) {
	near, far, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	a := NewPort(Config{}, nil, near)
	defer a.Close()
	defer far.Close()
	const burst = 64
	got := make(chan []byte, burst)
	go func() {
		buf := make([]byte, 256)
		for i := 0; i < burst; i++ {
			time.Sleep(200 * time.Microsecond)
			n, err := far.Read(buf)
			if err != nil {
				close(got)
				return
			}
			got <- append([]byte(nil), buf[:n]...)
		}
	}()
	for i := 0; i < burst; i++ {
		tx := testBuf()
		tx.SetFrame(testFrame(80, byte(i)))
		if !a.Enqueue(nil, tx, 0) {
			t.Fatalf("Enqueue %d refused", i)
		}
	}
	a.Flush()
	if s := a.TXStats(); s.Sent != burst || s.DropFull+s.DropTransient != 0 {
		t.Fatalf("TXStats = %+v, want %d sent and no drops", s, burst)
	}
	for i := 0; i < burst; i++ {
		select {
		case f, ok := <-got:
			if !ok {
				t.Fatalf("peer read failed after %d frames", i)
			}
			if !bytes.Equal(f, testFrame(80, byte(i))) {
				t.Fatalf("frame %d out of order or corrupted", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer received %d of %d frames", i, burst)
		}
	}
}

// TestBatchedDrainAccounting: frames queued on the socket before the
// port's reader starts arrive in multi-frame batches. A mix of runts
// and good frames that fills the 4-slot ring partway through must book
// Delivered, DropRunt and DropFull exactly as one read per frame would:
// a runt frees its slot, and once the ring is full every frame — runt
// or not — is a DropFull.
func TestBatchedDrainAccounting(t *testing.T) {
	near, far, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	// good, runt, good, good, runt, good | ring full: good, runt, good
	pattern := []bool{true, false, true, true, false, true, true, false, true}
	for i, good := range pattern {
		f := testFrame(80, byte(i))
		if !good {
			f = f[:20]
		}
		if _, err := far.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPort(Config{RXRing: 4}, near, nil)
	defer p.Close()
	waitCond(t, "all frames booked", func() bool {
		s := p.RXStats()
		return s.Delivered+s.DropRunt+s.DropFull == uint64(len(pattern))
	})
	if s := p.RXStats(); s.Delivered != 4 || s.DropRunt != 2 || s.DropFull != 3 {
		t.Fatalf("RXStats = %+v, want Delivered 4, DropRunt 2, DropFull 3", s)
	}
	pkts := make([]*pktbuf.Packet, 4)
	descs := make([]nic.Descriptor, 4)
	for i := 0; i < 4; i++ {
		if err := p.Post(testBuf()); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Poll(nil, 0, 4, pkts, descs); n != 4 {
		t.Fatalf("Poll = %d, want 4", n)
	}
	for i, want := range []int{0, 2, 3, 5} {
		if !bytes.Equal(pkts[i].Bytes(), testFrame(80, byte(want))) {
			t.Fatalf("delivered frame %d is not pattern frame %d", i, want)
		}
	}
}
