// Wire serving: driving an engine against live internal/wire ports
// instead of the simulated two-node harness. The same DUT assembly —
// mempools, bindings, routers, telemetry — runs here; what changes is
// the clock (wall time, since real sockets do not advance a simulated
// calendar) and the exit condition (idle timeout or packet budget
// instead of a drained traffic source).
//
// Serving is the paper's run-to-completion model made literal, and one
// core is just N=1: core c owns its queue pairs, its pktbuf pools, its
// span tracker, its overload controller, its Click graph replica, and
// its own simulated machine — zero shared mutable state on the hot
// path. The per-core loops meet only at an atomic stop flag, padded
// per-core progress counters the coordinator sums, and (when a metrics
// exporter is attached) a publish gate that briefly quiesces the cores
// for a snapshot.
package testbed

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetmill/internal/cache"
	"packetmill/internal/click"
	"packetmill/internal/dpdk"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/nic"
	"packetmill/internal/telemetry"
	"packetmill/internal/xchg"
)

// NewWireDUTPerCore assembles an N-core wire DUT: devsPerCore[c][i] is
// core c's own queue pair appearing as Click PORT i — typically queue c
// of a wire.Fanout, or a dedicated socketpair per core. Every core gets
// a private machine: the cores run as concurrent goroutines and the
// simulated memory hierarchy is a single-threaded model, and a
// run-to-completion pipeline shares nothing anyway.
func NewWireDUTPerCore(o Options, devsPerCore [][]nic.Port) (*DUT, error) {
	if len(devsPerCore) == 0 || len(devsPerCore[0]) == 0 {
		return nil, fmt.Errorf("testbed: wire DUT needs at least one core with at least one device")
	}
	o.Cores = len(devsPerCore)
	o.NICs = len(devsPerCore[0])
	o = o.withDefaults()
	memCfg := cache.DefaultSystemConfig()
	if o.DDIOWays > 0 {
		memCfg.DDIOWays = o.DDIOWays
	}
	d := &DUT{
		Opts:     o,
		Huge:     memsim.NewArena("hugepages", memsim.HugeBase, 1<<30),
		Static:   memsim.NewArena("static", memsim.StaticBase, 512<<20),
		Heap:     memsim.NewHeap(),
		mempools: map[*dpdk.Port]*dpdk.Mempool{},
		bindings: map[*dpdk.Port]xchg.Binding{},
	}
	for c, devs := range devsPerCore {
		if len(devs) != o.NICs {
			return nil, fmt.Errorf("testbed: core %d has %d devices, core 0 has %d", c, len(devs), o.NICs)
		}
		mach := machine.New(memCfg, machine.DefaultCostModel())
		d.Machs = append(d.Machs, mach)
		core := mach.AddCore(o.FreqGHz)
		d.Cores = append(d.Cores, core)
		d.PortsFor = append(d.PortsFor, map[int]*dpdk.Port{})
		// Tracing and the live exporter both need the span trackers; the
		// report itself still requires Telemetry.
		if o.Telemetry || o.Trace != nil || o.Metrics != nil {
			d.Trackers = append(d.Trackers, telemetry.NewTracker(core))
		} else {
			d.Trackers = append(d.Trackers, nil)
		}
		for i, dev := range devs {
			port, err := d.buildPortOn(i, dev)
			if err != nil {
				return nil, err
			}
			d.PortsFor[c][i] = port
		}
	}
	d.Mach = d.Machs[0]
	d.buildControllers()
	d.attachTrace()
	return d, nil
}

// WireServeStats summarizes a wire-serving session.
type WireServeStats struct {
	// Steps is the number of scheduling rounds executed (summed across
	// cores on a multicore session).
	Steps uint64
	// Packets counts packets moved across all rounds (RX and TX both
	// count, as in Engine.Step's contract).
	Packets uint64
}

// coreProgress is the slice of serving state one core shares with the
// coordinator, padded past a cache line so neighboring cores' counters
// never false-share.
type coreProgress struct {
	steps   atomic.Uint64
	packets atomic.Uint64
	// lastWork is the wall offset (ns since serve start) of the last
	// round that moved packets.
	lastWork atomic.Int64
	_        [104]byte
}

// ServeWire drives the engines against wall-clock time until ctx is
// canceled, the engines have moved maxPackets packets (0 = no budget),
// or every core has been idle for idleExit (0 = no idle exit), then
// drains in-flight transmissions so a post-run Audit balances. Every
// core runs the same loop: core 0 on the calling goroutine (a caller
// that pinned its thread keeps the loop pinned), cores 1..N-1 on their
// own. A coordinator goroutine enforces the exits from the per-core
// progress counters and publishes exporter snapshots.
func (d *DUT) ServeWire(ctx context.Context, engines []Engine,
	idleExit time.Duration, maxPackets uint64) (WireServeStats, error) {
	if len(engines) != len(d.Cores) {
		return WireServeStats{}, fmt.Errorf("testbed: %d engines for %d cores", len(engines), len(d.Cores))
	}
	d.wireEngines = engines
	start := time.Now()
	// On the wire the flight recorder timestamps events with wall time
	// (the simulated calendar does not advance against real sockets).
	if d.Opts.Trace != nil {
		for _, ct := range d.Opts.Trace.Cores() {
			ct.SetClock(func() float64 { return float64(time.Since(start)) })
		}
	}
	// Overload observation runs against the wall clock; the cadence is
	// the same dwell-derived fraction the simulated driver uses.
	var obsEveryNS float64
	if len(d.Ctls) > 0 {
		obsEveryNS = d.Ctls[0].DwellNS() / 4
		if obsEveryNS <= 0 {
			obsEveryNS = 12.5e3
		}
	}
	// The gate exists only for the exporter: every per-core counter,
	// histogram, and tracker is single-writer state owned by its core's
	// loop, so a mid-session snapshot must briefly quiesce the cores
	// (writer side) while they step under the read side. Without an
	// exporter the cores never touch it.
	var gate sync.RWMutex
	publish := d.Opts.Metrics != nil
	var stop atomic.Bool
	prog := make([]coreProgress, len(engines))
	serve := func(ci int) {
		core, eng, p := d.Cores[ci], engines[ci], &prog[ci]
		var nextObsNS float64
		var obsPolls, obsEmpty uint64
		for !stop.Load() {
			if publish {
				gate.RLock()
			}
			now := float64(time.Since(start))
			if obsEveryNS > 0 && now >= nextObsNS {
				nextObsNS = now + obsEveryNS
				d.observeCore(eng, ci, now, &obsPolls, &obsEmpty)
			}
			moved := eng.Step(core, now)
			if publish {
				gate.RUnlock()
			}
			p.steps.Add(1)
			if moved > 0 {
				p.packets.Add(uint64(moved))
				p.lastWork.Store(int64(now))
			} else {
				// An empty poll on a live wire should not spin a core
				// flat out.
				runtime.Gosched()
			}
		}
	}

	var wg sync.WaitGroup
	for ci := 1; ci < len(engines); ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(ci)
		}()
	}
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		err = d.coordinateWire(ctx, start, prog, idleExit, maxPackets, &gate)
	}()
	serve(0)
	wg.Wait()
	// Cores are joined: the drain and the final snapshot run
	// single-threaded over quiescent state, so a scrape after the
	// session sees the totals, not a half-second-old view.
	d.drainWire(engines, start)
	d.publishMetrics(time.Since(start))
	var st WireServeStats
	for i := range prog {
		st.Steps += prog[i].steps.Load()
		st.Packets += prog[i].packets.Load()
	}
	return st, err
}

// coordinateWire watches a serving session until it should end: it
// returns ctx's error on cancellation, nil once the cores have moved
// maxPackets packets or have all been idle for idleExit. Meanwhile it
// publishes exporter snapshots behind the gate's write side.
func (d *DUT) coordinateWire(ctx context.Context, start time.Time, prog []coreProgress,
	idleExit time.Duration, maxPackets uint64, gate *sync.RWMutex) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	lastPublish := start
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		var pkts uint64
		var lastWork time.Duration
		for i := range prog {
			pkts += prog[i].packets.Load()
			lastWork = max(lastWork, time.Duration(prog[i].lastWork.Load()))
		}
		if maxPackets > 0 && pkts >= maxPackets {
			return nil
		}
		if idleExit > 0 && time.Since(start)-lastWork > idleExit {
			return nil
		}
		if d.Opts.Metrics != nil && time.Since(lastPublish) >= metricsInterval {
			lastPublish = time.Now()
			gate.Lock()
			d.publishMetrics(time.Since(start))
			gate.Unlock()
		}
	}
}

// drainWire steps the engines and reaps TX rings until nothing moves and
// nothing is in flight (bounded by a wall-clock deadline), so buffers
// make it back to their pools before an Audit.
func (d *DUT) drainWire(engines []Engine, start time.Time) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		now := float64(time.Since(start))
		moved := 0
		for i, e := range engines {
			moved += e.Step(d.Cores[i], now)
		}
		inflight := 0
		for c, ports := range d.PortsFor {
			for _, port := range ports {
				// An empty TxBurst still reaps departed frames.
				port.TxBurst(d.Cores[c], now, nil)
				inflight += port.Dev.InflightCount()
			}
		}
		if moved == 0 && inflight == 0 {
			return
		}
		runtime.Gosched()
	}
}

// ServeWireGraphPerCore builds one router replica of g per core on a
// wire DUT and serves, each core driving its own devices
// (devsPerCore[c][i] is core c's Click PORT i): the one-call path
// cmd/packetmill's -io wire mode uses. The DUT is returned so callers
// can audit buffers and read the ledger and telemetry after the session.
func ServeWireGraphPerCore(ctx context.Context, g *click.Graph, o Options,
	devsPerCore [][]nic.Port, idleExit time.Duration, maxPackets uint64) (*DUT, WireServeStats, error) {
	d, err := NewWireDUTPerCore(o, devsPerCore)
	if err != nil {
		return nil, WireServeStats{}, err
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		return nil, WireServeStats{}, err
	}
	engines := make([]Engine, len(routers))
	for i, rt := range routers {
		engines[i] = &clickEngine{rt: rt, core: d.Cores[i]}
	}
	st, err := d.ServeWire(ctx, engines, idleExit, maxPackets)
	return d, st, err
}
