// Experiment: the per-core run-to-completion wire datapath. Not a paper
// figure — a scaling exhibit for this repository's multicore wire
// backend: N independent cores, each owning its own socket queue pair,
// buffer pool, and Click graph replica, with zero hot-path sharing.
// Table one measures aggregate forwarding throughput from 1 to 4 cores
// over live socketpairs; table two drives the software-RSS fanout with
// one elephant flow and shows the mice-migration fallback flattening the
// skew a static indirection table would lock in. Unlike the simulated
// exhibits, throughput here is wall-clock over real sockets, so absolute
// numbers (and the scaling ratio, on a starved host) vary with the
// machine; the skew table is deterministic.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/netpkt"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/testbed"
	"packetmill/internal/wire"
)

func init() {
	register("multicore", "per-core run-to-completion wire datapath: core scaling + RSS-skew fallback", multicoreExhibit)
}

// mcCoreCounts is the scaling axis: every core count the exhibit serves.
var mcCoreCounts = []int{1, 2, 4}

// mcFrame builds one minimum-size IPv4/UDP frame whose flow identity (and
// therefore RSS hash) is the source port.
func mcFrame(flow uint16) []byte {
	return netpkt.BuildUDP(make([]byte, 64), netpkt.UDPPacketSpec{
		SrcMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   netpkt.IPv4{10, 0, 0, 1},
		DstIP:   netpkt.IPv4{10, 0, 0, 2},
		SrcPort: flow,
		DstPort: 9,
	})
}

func multicoreExhibit(scale float64) *Plan {
	scaling := &Table{
		ID:    "multicore",
		Title: "run-to-completion wire datapath: aggregate throughput vs cores (EtherMirror, 64B)",
		Columns: []string{"cores", "frames", "elapsed_ms", "agg_kpps",
			"per_core_kpps", "speedup"},
	}
	skew := &Table{
		ID:      "multicore-skew",
		Title:   "software-RSS fanout, one elephant flow at 50% load: static table vs mice migration (share over final window)",
		Columns: []string{"table", "queues", "frames", "bucket_moves", "hot_queue_share"},
	}
	p := &Plan{Tables: []*Table{scaling, skew}}

	// The wire exhibits measure wall clock, so the budget floor is about
	// syscall-noise amortization, not statistical confidence.
	perCore := int(2500 * scale)
	if perCore < 600 {
		perCore = 600
	}

	// One unit for everything: the scaling rows time real work, and a
	// sibling unit on another worker would steal the cycles being timed.
	p.Unit(func(u *U) {
		var base float64
		for _, cores := range mcCoreCounts {
			elapsed, frames, err := mcServe(cores, perCore, u.Seed)
			if err != nil {
				panic(fmt.Sprintf("multicore %d-core serve: %v", cores, err))
			}
			kpps := float64(frames) / elapsed / 1e3
			if base == 0 {
				base = kpps
			}
			u.Add(fmt.Sprint(cores), fmt.Sprint(frames),
				f1(elapsed*1e3), f1(kpps), f1(kpps/float64(cores)), f2(kpps/base))
		}

		staticHot, steadyHot, moves, total, err := mcSkew()
		if err != nil {
			panic(fmt.Sprintf("multicore skew: %v", err))
		}
		u.AddTo(1, "static", "2", fmt.Sprint(total), "0",
			f1(staticHot*100)+"%")
		u.AddTo(1, "rebalanced", "2", fmt.Sprint(total),
			fmt.Sprint(moves), f1(steadyHot*100)+"%")
	})
	return p
}

// mcServe stands up `cores` independent loopback segments, serves the
// EtherMirror graph with one run-to-completion pipeline per core, and
// pushes perCore frames through each from concurrent generators. Returns
// the wall-clock serving time and the frames actually processed.
func mcServe(cores, perCore int, seed uint64) (elapsedSec float64, frames uint64, err error) {
	gens := make([]*wire.Port, cores)
	devsPerCore := make([][]nic.Port, cores)
	defer func() {
		for _, g := range gens {
			if g != nil {
				g.Close()
			}
		}
		for _, devs := range devsPerCore {
			for _, d := range devs {
				d.(*wire.Port).Close()
			}
		}
	}()
	for c := 0; c < cores; c++ {
		gen, dut, lerr := wire.Loopback(
			wire.Config{Name: fmt.Sprintf("gen%d", c), RXRing: 512, TXRing: 512},
			wire.Config{Name: fmt.Sprintf("wire%d", c), Queue: c, RXRing: 512, TXRing: 512})
		if lerr != nil {
			return 0, 0, lerr
		}
		gens[c] = gen
		devsPerCore[c] = []nic.Port{dut}
		for i := 0; i < 512; i++ {
			if perr := gen.Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); perr != nil {
				return 0, 0, perr
			}
		}
	}
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		return 0, 0, err
	}

	// 64 flows so the frames spread across RSS buckets like real traffic.
	flows := make([][]byte, 64)
	for i := range flows {
		flows[i] = mcFrame(uint16(1000 + i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	total := uint64(cores) * uint64(perCore)
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) { // generator: enqueue, then reap the completion
			defer wg.Done()
			tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
			reap := make([]*pktbuf.Packet, 1)
			for i := 0; i < perCore; i++ {
				tx.Reset(tx.OrigHeadroom())
				tx.SetFrame(flows[i%len(flows)])
				for !gens[c].Enqueue(nil, tx, 0) {
					runtime.Gosched()
				}
				gens[c].Flush()
				for gens[c].Reap(0, reap) == 0 {
					runtime.Gosched()
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) { // capture: recycle RX buffers so the DUT never stalls
			defer wg.Done()
			pkts := make([]*pktbuf.Packet, 32)
			descs := make([]nic.Descriptor, 32)
			for {
				n := gens[c].Poll(nil, 0, len(pkts), pkts, descs)
				for i := 0; i < n; i++ {
					if gens[c].Post(pkts[i]) != nil {
						return
					}
				}
				if n == 0 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}(c)
	}
	_, st, err := testbed.ServeWireGraphPerCore(ctx, g,
		testbed.Options{Model: click.XChange, Seed: seed},
		devsPerCore, 2*time.Second, total)
	elapsedSec = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, 0, err
	}
	return elapsedSec, st.Packets, nil
}

// mcSkew drives the 2-queue fanout with an elephant flow carrying half
// the load and 64 mice sharing the rest, long enough for the
// mice-migration fallback to converge. Returns the hottest queue's
// offered share under a static indirection table (predicted by hashing
// the same sequence — identical every window, since the mix repeats) and
// under the live rebalancer over the final window, plus the number of
// bucket migrations performed.
func mcSkew() (staticHot, steadyHot float64, moves uint64, total int, err error) {
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		rxNear.Close()
		rxFar.Close()
		return 0, 0, 0, 0, err
	}
	defer rxFar.Close()
	defer txFar.Close()
	const queues = 2
	f := wire.NewFanout(wire.Config{Name: "rss", RXRing: 64, TXRing: 64},
		queues, rxNear, txNear)
	defer f.Close()

	elephant := mcFrame(7)
	mice := make([][]byte, 64)
	for i := range mice {
		mice[i] = mcFrame(uint16(2000 + i))
	}
	pick := func(i int) []byte {
		if i%2 == 0 {
			return elephant
		}
		return mice[(i/2)%len(mice)]
	}

	offered := func() (per [queues]uint64, sum uint64) {
		for q := 0; q < queues; q++ {
			s := f.Queue(q).RXStats()
			per[q] = s.Delivered + s.DropFull + s.DropRunt
			sum += per[q]
		}
		return
	}
	var static [queues]uint64
	sent := 0
	feed := func(frames int) error {
		for i := 0; i < frames; i++ {
			frame := pick(sent)
			sent++
			static[int(nic.HashFrame(frame)&(wire.FanoutBuckets-1))%queues]++
			if _, werr := rxFar.Write(frame); werr != nil {
				return werr
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, sum := offered(); sum >= uint64(sent) {
				return nil
			}
			if time.Now().After(deadline) {
				_, sum := offered()
				return fmt.Errorf("fanout consumed %d of %d frames", sum, sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	max := func(a [queues]uint64) uint64 {
		m := a[0]
		for _, v := range a[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}

	// Five windows converge the table (four moves per window against ~32
	// hot mice buckets), then the final window measures steady state.
	const windows = 6
	total = windows * wire.FanoutWindow
	if err := feed((windows - 1) * wire.FanoutWindow); err != nil {
		return 0, 0, 0, 0, err
	}
	before, _ := offered()
	if err := feed(wire.FanoutWindow); err != nil {
		return 0, 0, 0, 0, err
	}
	after, _ := offered()
	var last [queues]uint64
	for q := range last {
		last[q] = after[q] - before[q]
	}
	staticHot = float64(max(static)) / float64(total)
	steadyHot = float64(max(last)) / float64(wire.FanoutWindow)
	return staticHot, steadyHot, f.Rebalances(), total, nil
}
