package main

// metricSpec names one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same metrics; TestBenchmarkJSONMatches
// keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the datapath sees, printed on every
// untraced run of every workload. Host cost is process CPU time and the
// rest is modeled or counted: wall-clock figures swing with the CPU time
// a shared host's other tenants take, so they are reported per layer
// (host.kpps, wire.rtt_us.*) instead of gated. NOTES.md defines each
// metric per kind of workload.
var endToEnd = []metricSpec{
	{"host_ns_per_pkt.p50", "ns", "lower", 0.2},
	{"host_ns_per_pkt.tail", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"mem_peak_mib", "MiB", "lower", 0.1},
	{"delivered_frac", "fraction", "higher", 0.01},
	{"model_mpps_per_core", "Mpps", "higher", 0.05},
	{"model_gbps_per_core", "Gbps", "higher", 0.05},
	{"model_lat_us.p50", "us", "lower", 0.1},
	{"model_lat_us.p99", "us", "lower", 0.25},
}

// tracedPkgs are the package groups the CPU profile's self samples are
// split into (cpu_share.<pkg>); samples elsewhere land in "other".
var tracedPkgs = []string{
	"cache", "nic", "dpdk", "xchg", "click", "elements", "lpm", "conntrack",
	"cuckoo", "testbed", "trafficgen", "machine", "pktbuf", "netpkt", "wire",
	"syscall", "runtime", "telemetry", "stats", "sync", "time", "perfbench", "other",
}

// modelStages are the telemetry stages model.cycles_per_pkt.<stage>
// reports.
var modelStages = []string{"driver", "pmd-rx", "conversion", "engine", "pmd-tx"}

// perLayer are the traced run's metrics. A workload that bypasses a
// layer reports 0 for it.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"setup.parse_s", "s", "lower", 0},
		{"setup.mill_s", "s", "lower", 0},
		{"setup.profile_s", "s", "lower", 0},
		{"setup.dut_s", "s", "lower", 0},
		{"setup.build_s", "s", "lower", 0},
		{"setup.alloc_mib", "MiB", "lower", 0},
		{"host.chunks", "count", "higher", 0},
		{"host.tail_pct", "pct", "higher", 0},
		{"host.kpps", "kpps", "higher", 0},
		{"go.allocs_per_pkt", "allocs/pkt", "lower", 0},
		{"trace.overhead_ns_per_pkt", "ns", "lower", 0},
		{"engine.ns_per_pkt", "ns", "lower", 0},
		{"engine.empty_step_frac", "fraction", "lower", 0},
		{"driver.ns_per_pkt", "ns", "lower", 0},
		{"trafficgen.ns_per_pkt", "ns", "lower", 0},
		{"profile.samples", "count", "higher", 0},
	}
	for _, p := range tracedPkgs {
		m = append(m, metricSpec{"cpu_share." + p, "fraction", "lower", 0})
	}
	for _, s := range modelStages {
		m = append(m, metricSpec{"model.cycles_per_pkt." + s, "cycles", "lower", 0})
	}
	return append(m, []metricSpec{
		{"model.instr_per_pkt", "instr", "lower", 0},
		{"model.ipc", "instr/cycle", "higher", 0},
		{"model.llc_loads_per_pkt", "count", "lower", 0},
		{"model.llc_miss_per_pkt", "count", "lower", 0},
		{"pmd.empty_poll_frac", "fraction", "lower", 0},
		{"pmd.refill_short_per_kpkt", "count", "lower", 0},
		{"conntrack.hit_frac", "fraction", "higher", 0},
		{"conntrack.inserts_per_kpkt", "count", "lower", 0},
		{"conntrack.evictions_per_kpkt", "count", "lower", 0},
		{"conntrack.expiries_per_kpkt", "count", "lower", 0},
		{"wire.rtt_us.p50", "us", "lower", 0},
		{"wire.rtt_us.tail", "us", "lower", 0},
		{"wire.poll_ns", "ns", "lower", 0},
		{"wire.poll_empty_frac", "fraction", "lower", 0},
		{"wire.enqueue_ns_per_pkt", "ns", "lower", 0},
		{"wire.reap_ns", "ns", "lower", 0},
		{"wire.rx_drop_full", "count", "lower", 0},
		{"wire.tx_drops", "count", "lower", 0},
		{"serve.steps_per_pkt", "count", "lower", 0},
		{"gen.write_ns", "ns", "lower", 0},
		{"gen.read_wait_us", "us", "lower", 0},
		{"go.gc_cpu_frac", "fraction", "lower", 0},
		{"go.gc_cycles", "count", "lower", 0},
		{"go.sched_lat_us.p99", "us", "lower", 0},
	}...)
}()
