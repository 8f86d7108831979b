package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/machine"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/testbed"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
	"packetmill/internal/wire"
)

const (
	wireFreqGHz = 2.3
	// wireWindow is the closed loop's frames in flight. Open-loop
	// latency did not repeat on a 2-CPU host (the generator itself ran
	// late); a fixed window keeps the offered load tied to the DUT.
	wireWindow = 128
	wireFrame  = 64
	// wireFramesPerSecond sizes the session: a fixed frame count per
	// requested second, so the inputs, and with them the chunk count and
	// the fixed costs per frame, repeat from run to run. It is about the
	// closed loop's rate on a 2-CPU host.
	wireFramesPerSecond = 80000
	// wireChunk is replies per host-timing chunk.
	wireChunk = 8192
	// wireStall bounds how long the loop may see no progress before the
	// run fails as wedged.
	wireStall = 2 * time.Second
	// wireSetups is how many times the wire DUT is assembled; its set-up
	// is milliseconds, so many repetitions steady the median.
	wireSetups = 41
	// seqOff is where each frame carries its sequence number: past the
	// Ethernet, IPv4 and TCP headers of a 64-B frame.
	seqOff = 56
)

// wireBuild is an EtherMirror DUT serving one wire.Port whose peer ends
// the generator drives as raw sockets.
type wireBuild struct {
	d            *testbed.DUT
	eng          *engine
	port         *port // the benchmark's decorator around the wire.Port
	wp           *wire.Port
	genTx, genRx net.Conn
	dutRx, dutTx net.Conn
	setup        setupTimes
}

func buildWire(seed uint64, telem bool) (*wireBuild, error) {
	b := &wireBuild{}
	a0 := readRuntime().allocBytes
	t := cpuNS()
	p, err := core.Parse(nf.Mirror(0, 32))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	p.Model = click.XChange
	b.setup.parse = lapSince(&t)
	if b.genTx, b.dutRx, err = wire.Socketpair(); err != nil {
		return nil, err
	}
	if b.dutTx, b.genRx, err = wire.Socketpair(); err != nil {
		b.genTx.Close()
		b.dutRx.Close()
		return nil, err
	}
	b.wp = wire.NewPort(wire.Config{Name: "wire0"}, b.dutRx, b.dutTx)
	b.port = &port{Port: b.wp}
	o := testbed.Options{
		FreqGHz: wireFreqGHz, Model: p.Model, Opt: p.Plan.Opt, MetaLayout: p.Plan.MetaLayout,
		Seed: seed, Telemetry: telem,
	}
	if b.d, err = testbed.NewWireDUTPerCore(o, [][]nic.Port{{b.port}}); err != nil {
		b.close()
		return nil, fmt.Errorf("wire dut: %w", err)
	}
	b.setup.dut = lapSince(&t)
	routers, err := b.d.BuildRouters(p.Plan.Graph)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("build routers: %w", err)
	}
	b.setup.build = lapSince(&t)
	b.setup.allocMiB = float64(readRuntime().allocBytes-a0) / (1 << 20)
	b.eng = &engine{rt: routers[0]}
	b.eng.modelCycles, b.eng.stepLat = true, trace.NewHist()
	return b, nil
}

// close stops the port's reader and closes every socket. Errors from
// closing a socket twice (the DUT's ends after a wedge) do not matter.
func (b *wireBuild) close() {
	b.wp.Close()
	b.genTx.Close()
	b.genRx.Close()
}

// wireRun is one serve session's measurements.
type wireRun struct {
	gen    genStats
	serve  testbed.WireServeStats
	drops  uint64 // drops the DUT counted, every layer
	allocs uint64
	wallNS int64
	cycles float64 // modeled cycles of the steps that moved packets
	core   machine.Counters
}

// serve runs the DUT's serve loop and the closed-loop generator for
// frames frames, then checks pairing and conservation (sent == returned +
// counted drops) and the buffer audit.
func (b *wireBuild) serve(seed uint64, frames uint64, timed bool) (wireRun, error) {
	var r wireRun
	src := trafficgen.NewFixedSize(trafficgen.Config{Seed: seed, RateGbps: 1, Count: 1 << 40}, wireFrame)
	b.eng.timed, b.port.timed = timed, timed
	// Frames sent before the PMD posts its RX buffers wedge the port (see
	// NOTES.md), so the generator waits for the serve loop's first Step.
	ready := make(chan struct{})
	b.eng.onFirstStep = func() { close(ready) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type served struct {
		st  testbed.WireServeStats
		err error
	}
	done := make(chan served, 1)
	c0 := b.d.Cores[0].Snapshot()
	cyc0 := b.eng.workCycles
	r0 := readRuntime()
	// The serve loop gets a CPU to itself when there are two, the way a
	// poll-mode core is isolated: every other thread — the generator,
	// the port's reader, the collector — moves to the remaining CPUs.
	// Left to the scheduler, the port's reader sometimes shared the
	// spinning serve loop's CPU for a whole run, and such runs carried
	// 40% less traffic at twice the tail latency.
	cpus := allowedCPUs()
	isolate := len(cpus) >= 2
	if isolate {
		defer confineThreads(cpus[1:], cpus)()
	}
	go func() {
		if isolate {
			pinThread(cpus[0])
		}
		st, err := b.d.ServeWire(ctx, []testbed.Engine{b.eng}, 0, 0)
		done <- served{st, err}
	}()
	var genErr error
	select {
	case <-ready:
		genDone := make(chan struct{})
		go func() {
			defer close(genDone)
			r.gen, genErr = runGenerator(b.genTx, b.genRx, src, frames, timed)
		}()
		<-genDone
	case <-time.After(wireStall):
		genErr = &checkError{"wedge", fmt.Sprintf("the serve loop did not step within %v", wireStall)}
	}
	cancel()
	var sv served
	select {
	case sv = <-done:
	case <-time.After(wireStall):
		// The serve loop is stuck inside a step, e.g. a send blocked with
		// the port's lock held. Closing the DUT's sockets fails the
		// blocked call so the goroutine can end before the run does.
		b.dutRx.Close()
		b.dutTx.Close()
		select {
		case <-done:
		case <-time.After(wireStall):
		}
		return r, &checkError{"wedge", fmt.Sprintf("the serve loop did not stop within %v of cancel (sent %d, returned %d)",
			wireStall, r.gen.sent, r.gen.returned)}
	}
	r1 := readRuntime()
	if genErr != nil {
		return r, genErr
	}
	if sv.err != nil && !errors.Is(sv.err, context.Canceled) {
		return r, fmt.Errorf("serve: %w", sv.err)
	}
	r.serve = sv.st
	r.allocs = r1.allocObjects - r0.allocObjects
	r.wallNS = r.gen.wallNS
	r.cycles = b.eng.workCycles - cyc0
	r.core = b.d.Cores[0].Snapshot().Delta(c0)
	r.drops = b.countedDrops()
	if r.gen.sent != r.gen.returned+r.drops {
		return r, &checkError{"wire-conservation", fmt.Sprintf("sent %d != returned %d + counted drops %d",
			r.gen.sent, r.gen.returned, r.drops)}
	}
	if err := b.d.Audit(); err != nil {
		return r, &checkError{"audit", err.Error()}
	}
	return r, nil
}

// countedDrops sums every drop the DUT booked: the wire port's RX and TX
// counters, the PMD's, and the engine's.
func (b *wireBuild) countedDrops() uint64 {
	rx, tx := b.wp.RXStats(), b.wp.TXStats()
	n := rx.DropNoBuf + rx.DropFull + rx.DropRunt + tx.DropFull + tx.DropTransient + tx.DropOversize
	for _, ports := range b.d.PortsFor {
		for _, p := range ports {
			n += p.Drops.Total()
		}
	}
	return n + b.eng.DropStats().Total()
}

// genStats is the closed-loop generator's ledger.
type genStats struct {
	sent, returned      uint64
	rtt                 *trace.Hist // round-trip times, ns
	marks               []int64     // process CPU ns every wireChunk replies
	wallNS              int64       // first send to last reply
	writes, reads       uint64
	writeNS, readWaitNS int64
}

// runGenerator keeps wireWindow frames in flight: it primes the window,
// then sends one frame per reply until it has sent frames, and drains
// the replies still in flight. Every reply must be its frame mirrored —
// MAC addresses swapped, every other byte equal. Drops leave replies
// missing; the caller reconciles them against the DUT's counters.
func runGenerator(tx, rx net.Conn, src trafficgen.Source, frames uint64, timed bool) (genStats, error) {
	g := genStats{rtt: trace.NewHist()}
	type slot struct {
		frame  [wireFrame]byte
		seq    uint64
		sentAt time.Time
		busy   bool
	}
	var slots [wireWindow]slot
	var seq uint64
	send := func() error {
		s := &slots[seq%wireWindow]
		if s.busy {
			return &checkError{"wire-pairing", fmt.Sprintf("frame %d still in flight when frame %d reuses its slot", s.seq, seq)}
		}
		f, _, _ := src.Next()
		copy(s.frame[:], f)
		putSeq(s.frame[:], seq)
		s.seq, s.busy = seq, true
		t0 := time.Now()
		if g.writes%256 == 0 {
			if err := tx.SetWriteDeadline(t0.Add(wireStall)); err != nil {
				return err
			}
		}
		_, err := tx.Write(s.frame[:])
		s.sentAt = t0
		if timed {
			g.writeNS += int64(time.Since(t0))
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return &checkError{"wedge", fmt.Sprintf("frame %d not accepted for %v", seq, wireStall)}
		}
		if err != nil {
			return fmt.Errorf("generator write: %w", err)
		}
		g.writes++
		g.sent++
		seq++
		return nil
	}
	buf := make([]byte, 2048)
	start := time.Now()
	for i := 0; i < wireWindow && g.sent < frames; i++ {
		if err := send(); err != nil {
			return g, err
		}
	}
	for g.returned < g.sent {
		if g.reads%256 == 0 {
			if err := rx.SetReadDeadline(time.Now().Add(wireStall)); err != nil {
				return g, err
			}
		}
		t0 := time.Now()
		n, err := rx.Read(buf)
		now := time.Now()
		if timed {
			g.readWaitNS += int64(now.Sub(t0))
		}
		g.reads++
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				return g, fmt.Errorf("generator read: %w", err)
			}
			if g.sent == frames {
				break // draining: what never came back was dropped
			}
			return g, &checkError{"wedge", fmt.Sprintf("no reply for %v (sent %d, returned %d)", wireStall, g.sent, g.returned)}
		}
		reply := buf[:n]
		if n != wireFrame {
			return g, &checkError{"wire-pairing", fmt.Sprintf("reply of %d bytes", n)}
		}
		rs := getSeq(reply)
		s := &slots[rs%wireWindow]
		if !s.busy || s.seq != rs || !mirrored(s.frame[:], reply) {
			return g, &checkError{"wire-pairing", fmt.Sprintf("reply %d does not mirror a frame in flight", rs)}
		}
		s.busy = false
		g.rtt.Record(float64(now.Sub(s.sentAt)))
		if g.returned%wireChunk == 0 {
			g.marks = append(g.marks, cpuNS())
		}
		g.returned++
		g.wallNS = int64(now.Sub(start))
		if g.sent < frames {
			if err := send(); err != nil {
				return g, err
			}
		}
	}
	return g, nil
}

func putSeq(f []byte, s uint64) {
	for i := 0; i < 8; i++ {
		f[seqOff+i] = byte(s >> (8 * i))
	}
}

func getSeq(f []byte) uint64 {
	var s uint64
	for i := 0; i < 8; i++ {
		s |= uint64(f[seqOff+i]) << (8 * i)
	}
	return s
}

// mirrored reports whether reply is sent with its MAC addresses swapped.
func mirrored(sent, reply []byte) bool {
	return len(sent) == len(reply) &&
		bytes.Equal(reply[0:6], sent[6:12]) &&
		bytes.Equal(reply[6:12], sent[0:6]) &&
		bytes.Equal(reply[12:], sent[12:])
}

// runWireMirror measures the wire workload: wireSetups assemblies (the
// last one serves), a serve session for the run's seconds, and with
// tracing a second, telemetry-armed build serving the other half.
func runWireMirror(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	frames := uint64(cfg.seconds * wireFramesPerSecond)
	if cfg.trace {
		frames /= 2
	}
	var times []setupTimes
	var b *wireBuild
	for i := 0; i < wireSetups; i++ {
		if b != nil {
			b.close()
		}
		// Each set-up starts from memory returned to the OS, as a fresh
		// process would: left to the scavenger, how much of the last
		// build's memory was still mapped varied by run and moved the
		// set-up time by a third.
		debug.FreeOSMemory()
		nb, err := buildWire(cfg.seed, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, nb.setup)
		b = nb
	}
	mem := liveHeapMiB()
	r, err := b.serve(cfg.seed, frames, false)
	mem = math.Max(mem, liveHeapMiB())
	b.close()
	if err != nil {
		return nil, err
	}
	host, err := summarize(chunkNSPerPkt(r.gen.marks, wireChunk))
	if err != nil {
		return nil, fmt.Errorf("host timing: %w", err)
	}
	rtt, err := summarizeHist(r.gen.rtt)
	if err != nil {
		return nil, fmt.Errorf("round-trip times: %w", err)
	}
	pkts := float64(r.gen.returned)
	mpps := wireFreqGHz * 1e3 / (r.cycles / pkts)
	out.attempted, out.failed = r.gen.sent, r.gen.sent-r.gen.returned
	for k, v := range map[string]float64{
		"host_ns_per_pkt.p50":  host.p50,
		"host_ns_per_pkt.tail": host.tail,
		"setup_s":              medianOf(times, setupTimes.total),
		"delivered_frac":       pkts / float64(r.gen.sent),
		"model_mpps_per_core":  mpps,
		"model_gbps_per_core":  mpps * wireFrame * 8 / 1e3,
		"model_lat_us.p50":     b.eng.stepLat.Quantile(0.5) / 1e3,
		"model_lat_us.p99":     b.eng.stepLat.Quantile(0.99) / 1e3,
	} {
		out.e2e[k] = v
	}
	out.notef("wire: sent %d, returned %d, counted drops %d; %d chunks of %d replies, tail = p%g with %d beyond",
		r.gen.sent, r.gen.returned, r.drops, host.n, wireChunk, host.tailPct, host.beyond)
	out.notef("round trip: p50 %.1f us, p%g %.1f us over %d replies (%d beyond)",
		rtt.p50/1e3, rtt.tailPct, rtt.tail/1e3, rtt.n, rtt.beyond)
	addSetupLayers(out.layer, times)
	for k, v := range map[string]float64{
		"host.chunks":       float64(host.n),
		"host.tail_pct":     host.tailPct,
		"host.kpps":         pkts / (float64(r.wallNS) / 1e9) / 1e3,
		"go.allocs_per_pkt": float64(r.allocs) / pkts,
		"wire.rtt_us.p50":   rtt.p50 / 1e3,
		"wire.rtt_us.tail":  rtt.tail / 1e3,
	} {
		out.layer[k] = v
	}
	if !cfg.trace {
		out.e2e["mem_peak_mib"] = mem
		return out, nil
	}
	return out, wireTraced(cfg, frames, host.p50, out)
}

// wireTraced serves frames on a fresh telemetry-armed wire DUT with the
// wrappers' clocks and the CPU profiler on, and fills the per-layer
// metrics. untracedP50 is the untraced session's host_ns_per_pkt.p50.
func wireTraced(cfg runConfig, frames uint64, untracedP50 float64, out *outcome) error {
	runtime.GC()
	tb, err := buildWire(cfg.seed, true)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer tb.close()
	st0 := stageCycles(tb.d)
	p0, pe0, rs0 := pmdTotals(tb.d)
	rt0 := readRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	tr, err := tb.serve(cfg.seed, frames, true)
	shares, samples, perr := prof.stop()
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if perr != nil {
		return perr
	}
	rt1 := readRuntime()
	st1 := stageCycles(tb.d)
	p1, pe1, rs1 := pmdTotals(tb.d)
	traced, err := summarize(chunkNSPerPkt(tr.gen.marks, wireChunk))
	if err != nil {
		return fmt.Errorf("traced host timing: %w", err)
	}
	tp := float64(tr.gen.returned)
	pt := tb.port
	rx, tx := tb.wp.RXStats(), tb.wp.TXStats()
	L := out.layer
	L["trace.overhead_ns_per_pkt"] = traced.p50 - untracedP50
	L["engine.ns_per_pkt"] = float64(tb.eng.busyNS) / tp
	L["engine.empty_step_frac"] = ratio(tb.eng.empty, tb.eng.steps)
	for _, s := range modelStages {
		L["model.cycles_per_pkt."+s] = (st1[s] - st0[s]) / tp
	}
	L["model.instr_per_pkt"] = float64(tr.core.Instructions) / tp
	L["model.ipc"] = tr.core.IPC()
	L["model.llc_loads_per_pkt"] = float64(tr.core.LLCLoads) / tp
	L["model.llc_miss_per_pkt"] = float64(tr.core.LLCLoadMisses) / tp
	L["pmd.empty_poll_frac"] = ratio(pe1-pe0, p1-p0)
	L["pmd.refill_short_per_kpkt"] = float64(rs1-rs0) / tp * 1e3
	L["wire.poll_ns"] = float64(pt.pollNS) / float64(pt.polls)
	L["wire.poll_empty_frac"] = ratio(pt.emptyPolls, pt.polls)
	L["wire.enqueue_ns_per_pkt"] = float64(pt.enqueueNS) / float64(pt.enqueues)
	L["wire.reap_ns"] = float64(pt.reapNS) / float64(pt.reaps)
	L["wire.rx_drop_full"] = float64(rx.DropFull)
	L["wire.tx_drops"] = float64(tx.DropFull + tx.DropTransient + tx.DropOversize)
	L["serve.steps_per_pkt"] = float64(tr.serve.Steps) / tp
	L["gen.write_ns"] = float64(tr.gen.writeNS) / float64(tr.gen.writes)
	L["gen.read_wait_us"] = float64(tr.gen.readWaitNS) / float64(tr.gen.reads) / 1e3
	addRuntimeLayers(L, rt0, rt1)
	addProfileLayers(L, shares, samples)
	out.notef("traced: p50 %.1f ns/pkt traced vs %.1f untraced; %d profile samples", traced.p50, untracedP50, samples)
	return nil
}
