package testbed

import (
	"testing"

	"packetmill/internal/click"
	_ "packetmill/internal/elements"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/trafficgen"
)

func run(t *testing.T, config string, o Options) *Result {
	t.Helper()
	if o.Packets == 0 {
		o.Packets = 3000
	}
	res, err := Run(config, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestForwarderCopyingEndToEnd(t *testing.T) {
	res := run(t, nf.Forwarder(0, 32), Options{
		FreqGHz: 2.3, Model: click.Copying, FixedSize: 512, RateGbps: 20,
	})
	if res.Packets == 0 {
		t.Fatal("no packets measured")
	}
	// At 20 Gbps offered and modest per-packet cost the forwarder must
	// keep up: negligible drops.
	if res.Dropped > res.Offered/100 {
		t.Fatalf("dropped %d of %d at light load", res.Dropped, res.Offered)
	}
	if res.Gbps() < 15 || res.Gbps() > 21 {
		t.Fatalf("forwarder goodput %.1f Gbps at 20 offered", res.Gbps())
	}
	if res.Latency.Median() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestForwarderAllModelsWork(t *testing.T) {
	for _, m := range []click.MetadataModel{click.Copying, click.Overlaying, click.XChange} {
		res := run(t, nf.Forwarder(0, 32), Options{
			FreqGHz: 2.3, Model: m, FixedSize: 512, RateGbps: 10,
		})
		if res.Packets == 0 {
			t.Fatalf("%v: no packets", m)
		}
		if res.Dropped > res.Offered/50 {
			t.Fatalf("%v: dropped %d/%d at light load", m, res.Dropped, res.Offered)
		}
	}
}

func TestMetadataModelOrdering(t *testing.T) {
	// §4.2: X-Change > Overlaying > Copying in throughput under
	// saturation. Offer line rate at a low frequency so the core is the
	// bottleneck.
	goodput := func(m click.MetadataModel) float64 {
		res := run(t, nf.Forwarder(0, 32), Options{
			FreqGHz: 1.2, Model: m, FixedSize: 1024, RateGbps: 100, Packets: 6000,
		})
		return res.Gbps()
	}
	cp, ov, xc := goodput(click.Copying), goodput(click.Overlaying), goodput(click.XChange)
	t.Logf("copying=%.1f overlaying=%.1f x-change=%.1f Gbps", cp, ov, xc)
	if !(xc > ov && ov > cp) {
		t.Fatalf("model ordering violated: copying=%.1f overlaying=%.1f x-change=%.1f", cp, ov, xc)
	}
}

func TestCodeOptimizationOrdering(t *testing.T) {
	// Figure 4: vanilla < devirtualize < static graph (throughput at a
	// CPU-bound operating point).
	goodput := func(opt click.OptLevel) float64 {
		res := run(t, nf.Router(32), Options{
			FreqGHz: 1.2, Model: click.Copying, Opt: opt,
			FixedSize: 1024, RateGbps: 100, Packets: 6000,
		})
		return res.Gbps()
	}
	vanilla := goodput(click.OptLevel{})
	devirt := goodput(click.OptLevel{Devirtualize: true})
	all := goodput(click.OptLevel{Devirtualize: true, ConstEmbed: true, StaticGraph: true})
	t.Logf("vanilla=%.1f devirt=%.1f all=%.1f Gbps", vanilla, devirt, all)
	if !(all > devirt && devirt > vanilla) {
		t.Fatalf("optimization ordering violated: vanilla=%.2f devirt=%.2f all=%.2f", vanilla, devirt, all)
	}
}

func TestRouterDeliversValidPackets(t *testing.T) {
	res := run(t, nf.Router(32), Options{
		FreqGHz: 2.3, Model: click.Copying, RateGbps: 10, Packets: 4000,
	})
	if res.Packets == 0 {
		t.Fatal("router forwarded nothing")
	}
	// The campus mix includes ARP and unroutable noise, but the bulk
	// must be forwarded.
	if float64(res.Packets) < 0.5*float64(res.Offered) {
		t.Fatalf("router forwarded only %d of %d", res.Packets, res.Offered)
	}
}

func TestIDSRouterRuns(t *testing.T) {
	res := run(t, nf.IDSRouter(32), Options{
		FreqGHz: 2.3, Model: click.Copying, RateGbps: 10, Packets: 4000,
	})
	if res.Packets == 0 {
		t.Fatal("IDS router forwarded nothing")
	}
}

func TestNATRouterRuns(t *testing.T) {
	res := run(t, nf.NATRouter(32), Options{
		FreqGHz: 2.3, Model: click.Copying, RateGbps: 10, Packets: 4000,
	})
	if res.Packets == 0 {
		t.Fatal("NAT forwarded nothing")
	}
}

func TestWorkPackageSlowsThroughput(t *testing.T) {
	light := run(t, nf.WorkPackageForwarder(32, 0, 0, 0), Options{
		FreqGHz: 1.6, Model: click.Copying, FixedSize: 1024, RateGbps: 100, Packets: 5000,
	})
	heavy := run(t, nf.WorkPackageForwarder(32, 16, 5, 20), Options{
		FreqGHz: 1.6, Model: click.Copying, FixedSize: 1024, RateGbps: 100, Packets: 5000,
	})
	if heavy.Gbps() >= light.Gbps() {
		t.Fatalf("WorkPackage cost invisible: light=%.1f heavy=%.1f", light.Gbps(), heavy.Gbps())
	}
}

func TestSaturationCapsThroughputAndDrops(t *testing.T) {
	// Offered load far above capacity: throughput caps, drops appear,
	// and latency rises to the full-ring level (the Figure 1 knee).
	low := run(t, nf.Router(32), Options{
		FreqGHz: 1.2, Model: click.Copying, FixedSize: 512, RateGbps: 5, Packets: 5000,
	})
	high := run(t, nf.Router(32), Options{
		FreqGHz: 1.2, Model: click.Copying, FixedSize: 512, RateGbps: 100, Packets: 20000,
	})
	if high.Dropped == 0 {
		t.Fatal("no drops under 4x overload")
	}
	if high.Latency.Median() < 10*low.Latency.Median() {
		t.Fatalf("latency knee missing: %.1fµs light vs %.1fµs overloaded",
			low.Latency.Median()/1e3, high.Latency.Median()/1e3)
	}
}

func TestThroughputScalesWithFrequency(t *testing.T) {
	slow := run(t, nf.Router(32), Options{
		FreqGHz: 1.2, Model: click.Copying, FixedSize: 1024, RateGbps: 100, Packets: 6000,
	})
	fast := run(t, nf.Router(32), Options{
		FreqGHz: 2.4, Model: click.Copying, FixedSize: 1024, RateGbps: 100, Packets: 6000,
	})
	ratio := fast.Gbps() / slow.Gbps()
	if ratio < 1.3 || ratio > 2.2 {
		t.Fatalf("frequency scaling ratio %.2f (%.1f → %.1f Gbps), want ≈1.5–2", ratio, slow.Gbps(), fast.Gbps())
	}
}

func TestTwoNICsAggregate(t *testing.T) {
	one := run(t, nf.Forwarder(0, 32), Options{
		FreqGHz: 3.0, Model: click.XChange, FixedSize: 1024, RateGbps: 100, Packets: 8000,
	})
	two := run(t, nf.TwoNICForwarder(32), Options{
		FreqGHz: 3.0, Model: click.XChange, NICs: 2, FixedSize: 1024, RateGbps: 100, Packets: 8000,
	})
	if two.Gbps() < one.Gbps()*1.2 {
		t.Fatalf("two NICs did not exceed one: %.1f vs %.1f Gbps", two.Gbps(), one.Gbps())
	}
}

func TestMulticoreScales(t *testing.T) {
	nat := func(cores int) float64 {
		res := run(t, nf.NATRouter(32), Options{
			FreqGHz: 1.2, Cores: cores, Model: click.Copying,
			FixedSize: 1024, RateGbps: 100, Packets: 8000,
			Traffic: nil,
		})
		return res.Gbps()
	}
	one, four := nat(1), nat(4)
	if four < one*1.8 {
		t.Fatalf("multicore scaling too weak: 1 core %.1f, 4 cores %.1f Gbps", one, four)
	}
}

func TestProfileCollected(t *testing.T) {
	res := run(t, nf.Router(32), Options{
		FreqGHz: 2.3, Model: click.Copying, Profile: true,
		FixedSize: 512, RateGbps: 10, Packets: 2000,
	})
	if res.Prof == nil || res.Prof.Total() == 0 {
		t.Fatal("no metadata profile recorded")
	}
}

func TestXChangeDescriptorConservation(t *testing.T) {
	res := run(t, nf.Forwarder(0, 32), Options{
		FreqGHz: 2.3, Model: click.XChange, FixedSize: 512, RateGbps: 20, Packets: 5000,
	})
	if res.Packets == 0 {
		t.Fatal("nothing forwarded")
	}
	// A sustained run through a 64-descriptor pool proves the exchange
	// workflow conserves descriptors (it would panic otherwise).
}

func TestBadConfigErrors(t *testing.T) {
	if _, err := Run("input :: NoSuchElement; input -> input;", Options{}); err == nil {
		t.Fatal("unknown element accepted")
	}
	if _, err := Run("x :: Discard;", Options{}); err == nil {
		t.Fatal("config without source accepted")
	}
}

func TestVectorizedPMDFasterAndRejectsXChange(t *testing.T) {
	cfg := nic.DefaultConfig("uncapped")
	cfg.MaxQueuePPS = 0
	run := func(vec bool) float64 {
		res, err := Run(nf.Forwarder(0, 32), Options{
			FreqGHz: 1.2, Model: click.Overlaying, FixedSize: 64,
			RateGbps: 100, Packets: 6000, VectorizedPMD: vec, NICConfig: &cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gbps()
	}
	scalar, vector := run(false), run(true)
	if vector <= scalar {
		t.Fatalf("vectorized PMD not faster: %.2f vs %.2f Gbps", vector, scalar)
	}
	// X-Change + vectorized must be rejected, as in the paper.
	if _, err := Run(nf.Forwarder(0, 32), Options{
		FreqGHz: 1.2, Model: click.XChange, VectorizedPMD: true,
	}); err == nil {
		t.Fatal("vectorized PMD accepted under X-Change")
	}
}

func TestReplayedTraceThroughDUT(t *testing.T) {
	// The paper's methodology: record a trace prefix, replay it N times.
	rec := trafficgen.Record(trafficgen.NewCampus(trafficgen.Config{
		Seed: 5, RateGbps: 100, Count: 1500,
	}), 0)
	res, err := Run(nf.Forwarder(0, 32), Options{
		FreqGHz: 2.3, Model: click.Copying, Packets: 4500,
		Traffic: func(int, trafficgen.Config) trafficgen.Source {
			return rec.Replay(3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 4500 {
		t.Fatalf("offered %d, want 3x1500", res.Offered)
	}
	if res.Packets == 0 {
		t.Fatal("replayed trace produced no throughput")
	}
}

// delayedSource shifts every arrival of a source by startNS.
type delayedSource struct {
	trafficgen.Source
	startNS float64
}

func (s delayedSource) Next() ([]byte, float64, bool) {
	f, ns, ok := s.Source.Next()
	return f, ns + s.startNS, ok
}

// TestDriveReusedDUTPastWatchdogBudget drives one DUT twice. The first
// Drive carries the core clock past the stall watchdog's budget; the
// second offers traffic that starts a little after that clock. Its first
// step sees no frame, which must not count as a stall since time 0.
func TestDriveReusedDUTPastWatchdogBudget(t *testing.T) {
	const budgetNS = 100e3
	d, err := NewDUT(Options{
		FreqGHz: 2.3, Model: click.XChange, FixedSize: 64, RateGbps: 10,
		Packets: 3000, WatchdogNS: budgetNS,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		t.Fatal(err)
	}
	engines := []Engine{&clickEngine{rt: routers[0], core: d.Cores[0]}}
	res, err := d.Drive(engines)
	if err != nil {
		t.Fatal(err)
	}
	start := d.Cores[0].NowNS()
	if start <= budgetNS {
		t.Fatalf("first Drive ended at %.0f ns, inside the %.0f-ns budget", start, budgetNS)
	}
	d.Opts.Traffic = func(_ int, cfg trafficgen.Config) trafficgen.Source {
		return delayedSource{trafficgen.NewFixedSize(cfg, 64), start + budgetNS/2}
	}
	res2, err := d.Drive(engines)
	if err != nil {
		t.Fatalf("second Drive: %v", err)
	}
	if res2.TxWire == 0 || res2.Offered != res.Offered {
		t.Fatalf("second Drive: offered %d, tx %d; first offered %d", res2.Offered, res2.TxWire, res.Offered)
	}
}
