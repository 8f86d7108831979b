package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/machine"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
	"packetmill/internal/trafficgen"
)

func TestPickTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 19, ok: false},
		{n: 20, pct: 50, beyond: 10, ok: true},
		{n: 39, pct: 50, beyond: 19, ok: true},
		{n: 40, pct: 75, beyond: 10, ok: true},
		{n: 199, pct: 90, beyond: 19, ok: true},
		{n: 200, pct: 95, beyond: 10, ok: true},
		{n: 999, pct: 95, beyond: 49, ok: true},
		{n: 1000, pct: 99, beyond: 10, ok: true},
		{n: 50000, pct: 99, beyond: 500, ok: true},
	} {
		pct, beyond, ok := pickTail(tc.n)
		if pct != tc.pct || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("pickTail(%d) = p%g, %d beyond, %v; want p%g, %d, %v",
				tc.n, pct, beyond, ok, tc.pct, tc.beyond, tc.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: summarize must sort
	}
	s, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Linear interpolation over 0..199: p50 at rank 99.5, p95 at 189.05.
	if s.n != 200 || s.p50 != 99.5 || s.tailPct != 95 || math.Abs(s.tail-189.05) > 1e-9 || s.beyond != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if _, err := summarize(make([]float64, 19)); err == nil {
		t.Error("19 samples: want an error, there is no tail to report")
	}
}

func TestChunkNSPerPkt(t *testing.T) {
	got := chunkNSPerPkt([]int64{1000, 3000, 7000}, 100)
	if want := []float64{20, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("chunkNSPerPkt = %v, want %v", got, want)
	}
	if got := chunkNSPerPkt([]int64{5}, 100); len(got) != 0 {
		t.Errorf("one mark makes no chunk, got %v", got)
	}
}

func TestClassifyCoversTaxonomy(t *testing.T) {
	want := map[stats.DropReason]lossClass{
		stats.DropEngine:           verdict,
		stats.DropFlowTableInvalid: verdict,
		stats.DropRxNoBuf:          capacity,
		stats.DropRxRingFull:       capacity,
		stats.DropPoolExhausted:    capacity,
		stats.DropTxRingFull:       capacity,
		stats.DropTxTransient:      capacity,
		stats.DropFlowTableFull:    capacity,
		stats.DropFlowTableNoPort:  capacity,
		stats.DropOverloadShed:     capacity,
		stats.DropOverloadRED:      capacity,
		stats.DropOverloadPrio:     capacity,
		stats.DropOverloadRestart:  capacity,
		stats.DropRxRunt:           fault,
		stats.DropWireFault:        fault,
		stats.DropLinkDown:         fault,
		stats.DropTxOversize:       fault,
	}
	for _, r := range stats.Reasons() {
		w, ok := want[r]
		if !ok {
			t.Errorf("reason %s is new: add it to NOTES.md's loss table and to this test", r)
			continue
		}
		if got := classify(r); got != w {
			t.Errorf("classify(%s) = %s, want %s", r, got, w)
		}
	}
	var d stats.DropCounters
	d.Add(stats.DropEngine, 2020) // the router's Discard and ARP verdicts
	d.Add(stats.DropRxRingFull, 3)
	d.Add(stats.DropFlowTableNoPort, 4)
	d.Add(stats.DropWireFault, 5)
	if got := lost(&d); got != 12 {
		t.Errorf("lost = %d, want 12: verdicts are not losses", got)
	}
	before := d
	d.Add(stats.DropRxRingFull, 7)
	delta := dropDelta(&d, &before)
	if delta.Total() != 7 || delta.Get(stats.DropRxRingFull) != 7 {
		t.Errorf("dropDelta = %s, want rx-ring-full=7", delta.String())
	}
}

// TestEnginePassesThrough drives one build through the testbed's own
// engine (testbed.RunGraph) and an identical build through the
// benchmark's wrapper, timed, and wants the same departures, counters
// and drops.
func TestEnginePassesThrough(t *testing.T) {
	p, err := core.Parse(nf.Router(32))
	if err != nil {
		t.Fatal(err)
	}
	p.Model = click.XChange
	if err := p.Mill(); err != nil {
		t.Fatal(err)
	}
	run := func(wrapped bool) (*testbed.Result, uint64) {
		var dg digest
		dg.start()
		o := testbed.Options{
			FreqGHz: 1.6, Cores: 2, Model: p.Model, Opt: p.Plan.Opt, MetaLayout: p.Plan.MetaLayout,
			RateGbps: 200, Packets: 20000, Warmup: 500, Seed: 3, Tap: dg.frame,
		}
		if !wrapped {
			res, err := testbed.RunGraph(p.Plan.Graph, o)
			if err != nil {
				t.Fatal(err)
			}
			return res, dg.stop()
		}
		d, err := testbed.NewDUT(o)
		if err != nil {
			t.Fatal(err)
		}
		routers, err := d.BuildRouters(p.Plan.Graph)
		if err != nil {
			t.Fatal(err)
		}
		var engines []testbed.Engine
		for _, rt := range routers {
			e := &engine{rt: rt}
			e.timed = true
			engines = append(engines, e)
		}
		res, err := d.Drive(engines)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Audit(); err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			if e.(*engine).steps == 0 || e.(*engine).busyNS <= 0 {
				t.Errorf("timed engine counted %d steps, %d ns", e.(*engine).steps, e.(*engine).busyNS)
			}
		}
		return res, dg.stop()
	}
	want, wantDigest := run(false)
	got, gotDigest := run(true)
	if gotDigest != wantDigest {
		t.Errorf("departures differ: digest %016x through the wrapper, %016x without", gotDigest, wantDigest)
	}
	if got.Throughput != want.Throughput || got.Counters != want.Counters ||
		got.Offered != want.Offered || got.TxWire != want.TxWire || got.DropsByReason != want.DropsByReason {
		t.Errorf("wrapped run %+v / %s differs from %+v / %s",
			got.Throughput, got.DropsByReason.String(), want.Throughput, want.DropsByReason.String())
	}
	if want.DropsByReason.Get(stats.DropEngine) == 0 {
		t.Error("the campus mix should make the router drop some frames by verdict (ARP, Discard)")
	}
}

// fakePort is a nic.Port whose Poll/Enqueue/Reap return scripted values
// and record their arguments.
type fakePort struct {
	nic.Port
	polled, compressed int
	nPoll              int
	enqueued           *pktbuf.Packet
	reapOut            int
}

func (f *fakePort) Poll(_ *machine.Core, _ float64, max int, _ []*pktbuf.Packet, _ []nic.Descriptor) int {
	f.polled++
	return min(f.nPoll, max)
}

func (f *fakePort) PollCompressed(_ *machine.Core, _ float64, max int, _ []*pktbuf.Packet, _ []nic.Descriptor) int {
	f.compressed++
	return min(f.nPoll, max)
}

func (f *fakePort) Enqueue(_ *machine.Core, p *pktbuf.Packet, _ float64) bool {
	f.enqueued = p
	return p != nil
}

func (f *fakePort) Reap(_ float64, out []*pktbuf.Packet) int { return min(f.reapOut, len(out)) }

func (f *fakePort) RXRingSize() int { return 77 }

func TestPortPassesThrough(t *testing.T) {
	for _, timed := range []bool{false, true} {
		f := &fakePort{nPoll: 5, reapOut: 3}
		p := &port{Port: f, timed: timed}
		pkts := make([]*pktbuf.Packet, 32)
		descs := make([]nic.Descriptor, 32)
		if n := p.Poll(nil, 0, 4, pkts, descs); n != 4 {
			t.Errorf("Poll = %d, want the inner port's 4", n)
		}
		if n := p.PollCompressed(nil, 0, 32, pkts, descs); n != 5 || f.compressed != 1 || f.polled != 1 {
			t.Errorf("PollCompressed = %d (inner Poll %d, PollCompressed %d calls): must reach the inner PollCompressed",
				n, f.polled, f.compressed)
		}
		f.nPoll = 0
		p.Poll(nil, 0, 32, pkts, descs)
		pkt := &pktbuf.Packet{}
		if !p.Enqueue(nil, pkt, 0) || f.enqueued != pkt {
			t.Error("Enqueue did not hand the packet to the inner port")
		}
		if p.Enqueue(nil, nil, 0) {
			t.Error("Enqueue must return the inner port's refusal")
		}
		if n := p.Reap(0, pkts[:2]); n != 2 {
			t.Errorf("Reap = %d, want 2", n)
		}
		if p.RXRingSize() != 77 {
			t.Error("unwrapped methods must reach the inner port")
		}
		if p.polls != 3 || p.emptyPolls != 1 || p.enqueues != 2 || p.reaps != 1 {
			t.Errorf("counted polls %d (empty %d), enqueues %d, reaps %d; want 3 (1), 2, 1",
				p.polls, p.emptyPolls, p.enqueues, p.reaps)
		}
		if timed && p.pollNS+p.enqueueNS+p.reapNS == 0 {
			t.Error("a timed port recorded no time")
		}
		if !timed && (p.pollNS != 0 || p.enqueueNS != 0 || p.reapNS != 0) {
			t.Error("an untimed port read the clock")
		}
	}
}

func TestSourcePacesAndStops(t *testing.T) {
	gen := func() trafficgen.Source {
		return trafficgen.NewFixedSize(trafficgen.Config{Seed: 1, RateGbps: 1, Count: 1000}, 64)
	}
	s := &source{src: gen(), limit: 10, clockNS: 500, lineGbps: 100, chunk: 4}
	var last float64
	want := 500.0
	for i := 0; ; i++ {
		_, ns, ok := s.Next()
		if !ok {
			if i != 10 {
				t.Errorf("stopped after %d frames, want 10", i)
			}
			break
		}
		if ns != want {
			t.Fatalf("frame %d arrives at %v, want %v (back to back at line rate)", i, ns, want)
		}
		last = ns
		want += (64 + trafficgen.WireOverheadBytes) * 8 / 100.0
	}
	if last == 0 || len(s.marks) != 3 || s.Remaining() != 0 {
		t.Errorf("marks %d (want 3 for frames 0, 4, 8), remaining %d", len(s.marks), s.Remaining())
	}
	arrivals := func() []float64 {
		p := &source{src: gen(), limit: 2000, meanGapNS: 100, gaps: newExpGaps(9)}
		var out []float64
		for {
			_, ns, ok := p.Next()
			if !ok {
				return out
			}
			out = append(out, ns)
		}
	}
	a, b := arrivals(), arrivals()
	if !reflect.DeepEqual(a, b) {
		t.Error("Poisson arrivals must repeat for one seed")
	}
	if mean := a[len(a)-1] / float64(len(a)-1); mean < 90 || mean > 110 {
		t.Errorf("mean gap %.1f ns, want about 100", mean)
	}
}

func TestPkgGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"packetmill/internal/cache.(*System).Access":     "cache",
		"packetmill/internal/wire/pcapio.(*Reader).Next": "wire",
		"packetmill/internal/lpm.(*Table).Lookup":        "lpm",
		"packetmill/internal/memsim.(*Arena).Alloc":      "other",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "runtime",
		"syscall.Syscall6":                               "syscall",
		"internal/poll.(*FD).Write":                      "syscall",
		"sync.(*Mutex).Lock":                             "sync",
		"time.Now":                                       "time",
		"main.(*engine).Step":                            "perfbench",
		"sort.Float64s":                                  "other",
	} {
		if got := pkgGroup(fn); got != want {
			t.Errorf("pkgGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestSelfSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	self, err := selfSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for fn, n := range self {
		total += n
		if fn == "packetmill/perfbench.spin" || fn == "main.spin" {
			mine += n
		}
	}
	if total == 0 || mine*2 < total {
		t.Errorf("spin holds %d of %d self samples; want most (%v)", mine, total, self)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q / %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, e, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		e := b.PerLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, e, m)
		}
	}
}

// TestWireServe runs a short closed-loop session on the wire DUT: the
// serve loop, the generator and the port's reader on their own
// goroutines (run it with -race), every reply paired and accounted.
func TestWireServe(t *testing.T) {
	b, err := buildWire(1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	r, err := b.serve(1, 20000, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.gen.sent != 20000 || r.gen.returned != 20000 || r.drops != 0 {
		t.Errorf("sent %d, returned %d, dropped %d; want 20000 round trips", r.gen.sent, r.gen.returned, r.drops)
	}
	if r.gen.rtt.Count() != 20000 || len(r.gen.marks) != (20000+wireChunk-1)/wireChunk ||
		b.eng.stepLat.Count() == 0 || r.cycles <= 0 {
		t.Errorf("ledgers incomplete: %d RTTs, %d marks, %d step latencies, %v cycles",
			r.gen.rtt.Count(), len(r.gen.marks), b.eng.stepLat.Count(), r.cycles)
	}
}
