package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
	"packetmill/internal/testbed"
	"packetmill/internal/trafficgen"
)

// simWorkload is a workload on the simulated two-node testbed: one NF
// build offered a line-rate saturation phase and then a long host-timed
// load phase at ¾ of the modeled saturation rate.
type simWorkload struct {
	config   string
	mill     bool // the static PacketMill passes
	profiled bool // plus the profile-guided passes, from a captured profile
	freqGHz  float64
	cores    int
	// traffic builds the workload's generator; it is asked for frames
	// phase after phase and never runs dry.
	traffic func(cfg trafficgen.Config) trafficgen.Source

	satFrames   int // frames offered at line rate
	modelFrames int // frames in the model phase's load round
	loadFrames  int // frames per later load round
	warmup      int // departures excluded from each phase's measurement
	chunk       int // frames per host-timing chunk
	// setups is how many times a run builds the workload; setup_s is the
	// median. The first and the last build run the model phase, and the
	// two must agree bit for bit.
	setups int
}

const (
	// lineGbpsPerCore is the saturation phase's offered rate: the paper's
	// per-core 100-Gbps target, so a multi-core build is saturated too.
	lineGbpsPerCore = 100
	// loadShare is the load phase's offered rate as a share of the
	// modeled saturation rate: busy but lossless.
	loadShare = 0.75
	// profileFrames sizes the profile-guided build's profiling run.
	profileFrames = 5000
)

// setupTimes splits one build's set-up by layer.
type setupTimes struct {
	parse, mill, profile, dut, build float64 // seconds
	allocMiB                         float64
}

func (s setupTimes) total() float64 { return s.parse + s.mill + s.profile + s.dut + s.build }

// simBuild is one assembled DUT with the benchmark's wrappers in place.
type simBuild struct {
	w       *simWorkload
	d       *testbed.DUT
	engines []testbed.Engine
	eng     []*engine
	gen     trafficgen.Source
	gaps    *expGaps
	cur     *source // the phase being offered; Options.Traffic returns it
	// loadGapNS is the load phase's mean inter-arrival time, set by the
	// saturation phase.
	loadGapNS float64
	drops     stats.DropCounters
	digest    digest
	setup     setupTimes
}

// modelOut is the model phase's output: everything in it is a function
// of the workload and seed alone, so every build must agree bit for bit.
type modelOut struct {
	mpps, gbps     float64 // per core, saturation phase
	latP50, latP99 float64 // µs, first load round
	digest         uint64
}

func (w *simWorkload) build(seed uint64, telem bool) (*simBuild, error) {
	b := &simBuild{w: w}
	a0 := readRuntime().allocBytes
	t := cpuNS()
	p, err := core.Parse(w.config)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	p.Model = click.XChange
	b.setup.parse = lapSince(&t)
	if w.mill {
		if err := p.Mill(); err != nil {
			return nil, fmt.Errorf("mill: %w", err)
		}
	}
	b.setup.mill = lapSince(&t)
	if w.profiled {
		prof, err := p.CaptureProfile(testbed.Options{
			FreqGHz: w.freqGHz, RateGbps: lineGbpsPerCore, Packets: profileFrames, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		b.setup.profile = lapSince(&t)
		if err := p.MillProfileGuided(prof); err != nil {
			return nil, fmt.Errorf("profile-guided mill: %w", err)
		}
		b.setup.mill += lapSince(&t)
	}
	o := testbed.Options{
		FreqGHz: w.freqGHz, Cores: w.cores, NICs: 1,
		Model: p.Model, Opt: p.Plan.Opt, MetaLayout: p.Plan.MetaLayout,
		RateGbps: lineGbpsPerCore * float64(w.cores),
		// Warmup counts departures. Left at its default (Packets/10) it
		// can exceed what a line-rate phase ever delivers and leave the
		// measurement window empty, so it is always set here.
		Warmup:    w.warmup,
		Seed:      seed,
		Telemetry: telem,
		Traffic:   func(int, trafficgen.Config) trafficgen.Source { return b.cur },
		Tap:       b.digest.frame,
	}
	if b.d, err = testbed.NewDUT(o); err != nil {
		return nil, fmt.Errorf("dut: %w", err)
	}
	b.setup.dut = lapSince(&t)
	routers, err := b.d.BuildRouters(p.Plan.Graph)
	if err != nil {
		return nil, fmt.Errorf("build routers: %w", err)
	}
	b.setup.build = lapSince(&t)
	b.setup.allocMiB = float64(readRuntime().allocBytes-a0) / (1 << 20)
	for _, rt := range routers {
		e := &engine{rt: rt}
		b.eng = append(b.eng, e)
		b.engines = append(b.engines, e)
	}
	b.gen = w.traffic(trafficgen.Config{Seed: seed, RateGbps: lineGbpsPerCore, Count: math.MaxInt32})
	b.gaps = newExpGaps(seed)
	return b, nil
}

// nowNS is where the next phase's arrivals start: the earliest core
// clock. Drive's stall watchdog counts from simulated time zero, so a
// later phase on a build whose clocks are past its 50-ms budget trips at
// once unless its first step sees a frame arrive; the core stepped first
// is the one furthest behind.
func (b *simBuild) nowNS() float64 {
	t := math.Inf(1)
	for _, c := range b.d.Cores {
		t = math.Min(t, c.NowNS())
	}
	return t
}

// phaseResult is one Drive's result with the drops it alone caused.
type phaseResult struct {
	*testbed.Result
	drops  stats.DropCounters
	wallNS int64
}

// drive offers s through the build and checks the run: every frame
// offered, conservation (offered == tx + drops), a non-empty measurement
// window, and the buffer audit. A failed check is a *checkError.
func (b *simBuild) drive(s *source) (phaseResult, error) {
	s.clockNS = b.nowNS()
	b.cur = s
	t0 := time.Now()
	res, err := b.d.Drive(b.engines)
	wall := time.Since(t0)
	if err != nil {
		return phaseResult{}, &checkError{"drive", err.Error()}
	}
	pr := phaseResult{Result: res, drops: dropDelta(&res.DropsByReason, &b.drops), wallNS: int64(wall)}
	b.drops = res.DropsByReason
	switch {
	case res.Offered != uint64(s.limit):
		return pr, &checkError{"offered", fmt.Sprintf("%d of %d frames offered", res.Offered, s.limit)}
	case res.Offered != res.TxWire+pr.drops.Total():
		return pr, &checkError{"conservation", fmt.Sprintf("offered %d != tx %d + drops %d (%s)",
			res.Offered, res.TxWire, pr.drops.Total(), pr.drops.String())}
	case res.Packets == 0:
		return pr, &checkError{"empty-window", fmt.Sprintf(
			"no departures after the %d-departure warmup (%d departed)", b.w.warmup, res.TxWire)}
	}
	if err := b.d.Audit(); err != nil {
		return pr, &checkError{"audit", err.Error()}
	}
	return pr, nil
}

// modelPhase runs the saturation phase and the first load round with the
// departure digest armed.
func (b *simBuild) modelPhase() (modelOut, error) {
	w := b.w
	var m modelOut
	b.digest.start()
	sat, err := b.drive(&source{src: b.gen, limit: w.satFrames, lineGbps: lineGbpsPerCore * float64(w.cores)})
	if err != nil {
		return m, fmt.Errorf("saturation phase: %w", err)
	}
	// Per core means per second of core busy time: with several cores
	// RSS hands the heaviest flows to one of them, and dividing the
	// aggregate rate by the core count would charge that skew, which
	// varies with the seed's flows, to the datapath.
	busyNS := sat.Counters.BusyCycles / w.freqGHz
	m.mpps = float64(sat.Packets) / busyNS * 1e3
	m.gbps = float64(sat.Bytes) * 8 / busyNS
	b.loadGapNS = 1e3 / (loadShare * sat.Mpps())
	r1, err := b.drive(b.loadSource(w.modelFrames))
	if err != nil {
		return m, fmt.Errorf("load round 1: %w", err)
	}
	m.digest = b.digest.stop()
	m.latP50 = r1.Latency.Percentile(50) / 1e3
	m.latP99 = r1.Latency.Percentile(99) / 1e3
	return m, nil
}

// loadSource is one load round of n frames: Poisson arrivals at the load
// rate, the gap stream continuing across rounds.
func (b *simBuild) loadSource(n int) *source {
	return &source{src: b.gen, limit: n, meanGapNS: b.loadGapNS, gaps: b.gaps, chunk: b.w.chunk}
}

// loadStats accumulates the load rounds after the model phase.
type loadStats struct {
	rounds          int
	chunks          []float64 // host CPU ns/packet per chunk
	offered, lost   uint64
	drops           stats.DropCounters
	departed        uint64
	wallNS          int64
	allocs          uint64
	engineNS, genNS int64
	steps, empty    uint64
	// Modeled counters over the rounds' measurement windows.
	instr, llcLoads, llcMiss, measured uint64
	busyCycles                         float64
}

// loadPhase drives load rounds until seconds have passed (at least one).
// timed arms the wrappers' clocks for the per-layer breakdown.
func (b *simBuild) loadPhase(seconds float64, timed bool) (loadStats, error) {
	var ls loadStats
	for _, e := range b.eng {
		e.timed = timed
	}
	e0 := b.engineTotals()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for ls.rounds == 0 || time.Now().Before(deadline) {
		s := b.loadSource(b.w.loadFrames)
		s.timed = timed
		r0 := readRuntime()
		pr, err := b.drive(s)
		r1 := readRuntime()
		if err != nil {
			return ls, fmt.Errorf("load round %d: %w", ls.rounds+2, err)
		}
		ls.rounds++
		ls.chunks = append(ls.chunks, chunkNSPerPkt(s.marks, s.chunk)...)
		ls.offered += pr.Offered
		ls.lost += lost(&pr.drops)
		ls.drops.Merge(&pr.drops)
		ls.departed += pr.TxWire
		ls.wallNS += pr.wallNS
		ls.allocs += r1.allocObjects - r0.allocObjects
		ls.genNS += s.busyNS
		ls.instr += pr.Counters.Instructions
		ls.llcLoads += pr.Counters.LLCLoads
		ls.llcMiss += pr.Counters.LLCLoadMisses
		ls.measured += pr.Packets
		ls.busyCycles += pr.Counters.BusyCycles
	}
	e1 := b.engineTotals()
	ls.engineNS = e1.busyNS - e0.busyNS
	ls.steps = e1.steps - e0.steps
	ls.empty = e1.empty - e0.empty
	return ls, nil
}

// engineTotals sums the engine wrappers' counters across cores.
func (b *simBuild) engineTotals() engine {
	var t engine
	for _, e := range b.eng {
		t.busyNS += e.busyNS
		t.steps += e.steps
		t.empty += e.empty
	}
	return t
}

// lapSince returns the CPU seconds the process spent since *t and moves
// *t to now.
func lapSince(t *int64) float64 {
	now := cpuNS()
	s := float64(now-*t) / 1e9
	*t = now
	return s
}

// stageCycles reads the span trackers' cumulative modeled cycles per
// telemetry stage (empty without telemetry).
func stageCycles(d *testbed.DUT) map[string]float64 {
	r := &telemetry.Report{}
	r.BuildSpans(d.Trackers, nil)
	out := map[string]float64{}
	for _, s := range r.Stages {
		out[s.Stage] = s.Cycles
	}
	return out
}

// flowTotals sums the flow-table ledgers of every tracking element.
func (b *simBuild) flowTotals() (lookups, hits, inserts, evictions, expiries uint64) {
	for _, e := range b.eng {
		for _, inst := range e.rt.Instances {
			fr, ok := inst.El.(telemetry.FlowReporter)
			if !ok {
				continue
			}
			r := fr.FlowReport()
			lookups += r.Lookups
			hits += r.Hits
			inserts += r.Insertions
			expiries += r.Expirations
			for _, n := range r.Evictions {
				evictions += n
			}
		}
	}
	return
}

// pmdTotals sums the PMD poll counters of every port.
func pmdTotals(d *testbed.DUT) (polls, empty, refillShort uint64) {
	for _, ports := range d.PortsFor {
		for _, p := range ports {
			polls += p.Stats.Polls
			empty += p.Stats.EmptyPolls
			refillShort += p.Stats.RefillShort
		}
	}
	return
}

// run measures the workload: w.setups builds, the first and last through
// the model phase; then load rounds on the last build for the run's
// seconds. With tracing the seconds are split: the untraced half gives
// the baseline for the tracing overhead, and traced gives the per-layer
// numbers.
func (w *simWorkload) run(name string, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var times []setupTimes
	var ref modelOut
	var b *simBuild
	for i := 0; i < w.setups; i++ {
		b = nil
		// Each set-up starts from memory returned to the OS, as a fresh
		// process would: left to the scavenger, how much of the last
		// build's memory was still mapped varied by run and moved the
		// set-up time by a third.
		debug.FreeOSMemory()
		nb, err := w.build(cfg.seed, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, nb.setup)
		if i > 0 && i < w.setups-1 {
			continue
		}
		m, err := nb.modelPhase()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = m
		} else if m != ref {
			return nil, &checkError{"determinism", fmt.Sprintf("build %d's model phase %+v differs from build 1's %+v", i+1, m, ref)}
		}
		b = nb
	}
	if err := checkDigest(name, cfg.seed, ref.digest, out); err != nil {
		return nil, err
	}
	// Peak footprint: the live heap with the build warmed by the model
	// phase, and again after the load phase has grown its state.
	mem := liveHeapMiB()
	ls, err := b.loadPhase(seconds, false)
	if err != nil {
		return nil, err
	}
	mem = math.Max(mem, liveHeapMiB())
	b = nil
	host, err := summarize(ls.chunks)
	if err != nil {
		return nil, fmt.Errorf("host timing: %w", err)
	}
	out.attempted, out.failed = ls.offered, ls.lost
	for k, v := range map[string]float64{
		"host_ns_per_pkt.p50":  host.p50,
		"host_ns_per_pkt.tail": host.tail,
		"setup_s":              medianOf(times, setupTimes.total),
		"delivered_frac":       1 - float64(ls.lost)/float64(ls.offered),
		"model_mpps_per_core":  ref.mpps,
		"model_gbps_per_core":  ref.gbps,
		"model_lat_us.p50":     ref.latP50,
		"model_lat_us.p99":     ref.latP99,
	} {
		out.e2e[k] = v
	}
	out.notef("load drops: %s", ls.drops.String())
	out.notef("load: %d rounds x %d frames, %d chunks of %d frames; tail = p%g with %d chunks beyond",
		ls.rounds, w.loadFrames, host.n, w.chunk, host.tailPct, host.beyond)
	out.notef("model: %.4f Mpps/core saturated; load offered at %.0f%% of it; latency p50 %.4f us, p99 %.4f us (modeled); digest %016x",
		ref.mpps, loadShare*100, ref.latP50, ref.latP99, ref.digest)
	addSetupLayers(out.layer, times)
	for k, v := range map[string]float64{
		"host.chunks":       float64(host.n),
		"host.tail_pct":     host.tailPct,
		"host.kpps":         float64(ls.offered) / (float64(ls.wallNS) / 1e9) / 1e3,
		"go.allocs_per_pkt": float64(ls.allocs) / float64(ls.offered),
	} {
		out.layer[k] = v
	}
	if !cfg.trace {
		out.e2e["mem_peak_mib"] = mem
		return out, nil
	}
	return out, w.traced(cfg, seconds, ref.digest, host.p50, out)
}

// traced builds the workload again with telemetry spans armed, checks
// that its model phase departs the same frames, and measures seconds of
// load with the wrappers' clocks and the CPU profiler on. untracedP50 is
// the untraced half's host_ns_per_pkt.p50, the base of the overhead.
func (w *simWorkload) traced(cfg runConfig, seconds float64, digest uint64, untracedP50 float64, out *outcome) error {
	runtime.GC()
	tb, err := w.build(cfg.seed, true)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	tm, err := tb.modelPhase()
	if err != nil {
		return fmt.Errorf("traced build: %w", err)
	}
	if tm.digest != digest {
		return &checkError{"telemetry-transparent", fmt.Sprintf(
			"the telemetry-armed build departed digest %016x, the plain build %016x", tm.digest, digest)}
	}
	st0 := stageCycles(tb.d)
	l0, h0, i0, ev0, ex0 := tb.flowTotals()
	p0, pe0, rs0 := pmdTotals(tb.d)
	rt0 := readRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	tls, err := tb.loadPhase(seconds, true)
	shares, samples, perr := prof.stop()
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if perr != nil {
		return perr
	}
	rt1 := readRuntime()
	st1 := stageCycles(tb.d)
	l1, h1, i1, ev1, ex1 := tb.flowTotals()
	p1, pe1, rs1 := pmdTotals(tb.d)
	traced, err := summarize(tls.chunks)
	if err != nil {
		return fmt.Errorf("traced host timing: %w", err)
	}
	pkts := float64(tls.offered)
	L := out.layer
	L["trace.overhead_ns_per_pkt"] = traced.p50 - untracedP50
	L["engine.ns_per_pkt"] = float64(tls.engineNS) / pkts
	L["engine.empty_step_frac"] = ratio(tls.empty, tls.steps)
	L["trafficgen.ns_per_pkt"] = float64(tls.genNS) / pkts
	L["driver.ns_per_pkt"] = float64(tls.wallNS-tls.engineNS-tls.genNS) / pkts
	for _, s := range modelStages {
		L["model.cycles_per_pkt."+s] = (st1[s] - st0[s]) / float64(tls.departed)
	}
	L["model.instr_per_pkt"] = float64(tls.instr) / float64(tls.measured)
	L["model.ipc"] = float64(tls.instr) / tls.busyCycles
	L["model.llc_loads_per_pkt"] = float64(tls.llcLoads) / float64(tls.measured)
	L["model.llc_miss_per_pkt"] = float64(tls.llcMiss) / float64(tls.measured)
	L["pmd.empty_poll_frac"] = ratio(pe1-pe0, p1-p0)
	L["pmd.refill_short_per_kpkt"] = float64(rs1-rs0) / pkts * 1e3
	L["conntrack.hit_frac"] = ratio(h1-h0, l1-l0)
	L["conntrack.inserts_per_kpkt"] = float64(i1-i0) / pkts * 1e3
	L["conntrack.evictions_per_kpkt"] = float64(ev1-ev0) / pkts * 1e3
	L["conntrack.expiries_per_kpkt"] = float64(ex1-ex0) / pkts * 1e3
	addRuntimeLayers(L, rt0, rt1)
	addProfileLayers(L, shares, samples)
	out.notef("traced: %d rounds, p50 %.1f ns/pkt traced vs %.1f untraced; %d profile samples",
		tls.rounds, traced.p50, untracedP50, samples)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addSetupLayers fills the setup.* metrics: the median of each part
// over the run's builds.
func addSetupLayers(L map[string]float64, times []setupTimes) {
	for name, part := range map[string]func(setupTimes) float64{
		"setup.parse_s":   func(s setupTimes) float64 { return s.parse },
		"setup.mill_s":    func(s setupTimes) float64 { return s.mill },
		"setup.profile_s": func(s setupTimes) float64 { return s.profile },
		"setup.dut_s":     func(s setupTimes) float64 { return s.dut },
		"setup.build_s":   func(s setupTimes) float64 { return s.build },
		"setup.alloc_mib": func(s setupTimes) float64 { return s.allocMiB },
	} {
		L[name] = medianOf(times, part)
	}
}

func medianOf(ts []setupTimes, f func(setupTimes) float64) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return median(xs)
}

// addRuntimeLayers fills the go.* metrics from two runtime readings.
func addRuntimeLayers(L map[string]float64, r0, r1 rtSample) {
	if cpu := r1.totalCPU - r0.totalCPU; cpu > 0 {
		L["go.gc_cpu_frac"] = (r1.gcCPU - r0.gcCPU) / cpu
	}
	L["go.gc_cycles"] = float64(r1.gcCycles - r0.gcCycles)
	L["go.sched_lat_us.p99"] = schedP99US(r0, r1)
}

// digest is an order-sensitive FNV-1a hash over departed frames, armed
// only during the model phase.
type digest struct {
	on  bool
	sum uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d *digest) start() { d.on, d.sum = true, fnvOffset }

func (d *digest) stop() uint64 {
	d.on = false
	return d.sum
}

func (d *digest) frame(f []byte, _ float64) {
	if !d.on {
		return
	}
	h := d.sum
	for _, c := range f {
		h = (h ^ uint64(c)) * fnvPrime
	}
	d.sum = (h ^ uint64(len(f))) * fnvPrime
}

//go:embed digests.json
var digestsJSON []byte

// committedDigests maps workload -> seed -> the model phase's departure
// digest committed for it (hex).
func committedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// checkDigest compares a model phase's digest with the committed one for
// the workload and seed. A seed without a committed digest is still
// checked across two of the run's own builds; the note says so.
func checkDigest(name string, seed uint64, got uint64, out *outcome) error {
	table, err := committedDigests()
	if err != nil {
		return err
	}
	want, ok := table[name][fmt.Sprint(seed)]
	gotHex := fmt.Sprintf("%016x", got)
	switch {
	case !ok:
		out.notef("digest %s: no committed digest for seed %d; checked across two builds only", gotHex, seed)
	case want != gotHex:
		return &checkError{"digest", fmt.Sprintf("departed frames hash to %s, committed %s for seed %d", gotHex, want, seed)}
	default:
		out.notef("digest %s matches the committed digest for seed %d", gotHex, seed)
	}
	return nil
}
