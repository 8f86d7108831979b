package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"packetmill/internal/nf"
	"packetmill/internal/trafficgen"
)

// workloads are the benchmark's workloads. Each stresses different
// layers and bypasses others; NOTES.md gives the reasons and the
// predictions. The "why" lines are BENCHMARK.json's.
var workloads = []workload{
	{
		name: "mirror-64b",
		why:  "X-Change EtherMirror, 1 core at 2.3 GHz, 64-B frames: per-packet nic/dpdk/xchg/cache cost; bypasses elements, lpm, conntrack",
		sim: &simWorkload{
			config: nf.Mirror(0, 32), freqGHz: 2.3, cores: 1,
			traffic: func(cfg trafficgen.Config) trafficgen.Source {
				cfg.TCPShare, cfg.UDPShare, cfg.ICMPShare = 0.9, 0.08, 0.02
				return trafficgen.NewFixedSize(cfg, 64)
			},
			satFrames: 150000, modelFrames: 100000, loadFrames: 400000, warmup: 1000, chunk: 8192, setups: 41,
		},
	},
	{
		name: "router-campus-2c",
		why:  "milled profile-guided IP router, 2 cores at 1.6 GHz, campus size mix: read-heavy element work (classifier, LPM, checksums) and two graph replicas",
		sim: &simWorkload{
			config: nf.Router(32), mill: true, profiled: true, freqGHz: 1.6, cores: 2,
			traffic: func(cfg trafficgen.Config) trafficgen.Source {
				return trafficgen.NewCampus(cfg)
			},
			satFrames: 60000, modelFrames: 100000, loadFrames: 200000, warmup: 1000, chunk: 4096, setups: 5,
		},
	},
	{
		name: "nat-churn",
		why:  "milled NAT router, 1 core at 2.3 GHz, 4096 concurrent churning flows of 8 packets: conntrack inserts, evictions, expiry and the port pool",
		sim: &simWorkload{
			config: natConfig(), mill: true, freqGHz: 2.3, cores: 1,
			traffic: func(cfg trafficgen.Config) trafficgen.Source {
				return trafficgen.NewChurn(trafficgen.ChurnConfig{Config: cfg, Concurrent: 4096, FlowPackets: 8})
			},
			satFrames: 300000, modelFrames: 100000, loadFrames: 200000, warmup: 1000, chunk: 4096, setups: 7,
		},
	},
	{
		name: "wire-mirror",
		why:  "EtherMirror served on a real AF_UNIX socketpair, 1 core, closed loop of 128 in-flight 64-B frames: wire.Port, serve loop, syscalls, scheduler",
		run:  runWireMirror,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// writeDigests prints a fresh digests.json for seeds 0..n-1 of every
// simulated workload: one build and model phase each. Regenerate it only
// for a change that means to alter the modeled outputs, and say so.
func writeDigests(n int) error {
	table := map[string]map[string]string{}
	for _, w := range workloads {
		sw := w.sim
		if sw == nil {
			continue
		}
		table[w.name] = map[string]string{}
		for seed := uint64(0); seed < uint64(n); seed++ {
			b, err := sw.build(seed, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			m, err := b.modelPhase()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			table[w.name][fmt.Sprint(seed)] = fmt.Sprintf("%016x", m.digest)
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", w.name, seed, m)
		}
	}
	out, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// natConfig is nf.NATRouter with its flow timeouts scaled to simulated
// time. The defaults hold a closed flow's port for 10 simulated seconds;
// at this workload's ~400k new flows per simulated second the 64,512-port
// pool runs dry within a second of simulated time and every later flow
// is refused (NOTES.md, findings). Millisecond timeouts make expiry, not
// exhaustion, the steady state, and a table of 4096 entries — the live
// flow count — makes new flows evict.
func natConfig() string {
	const from = "IPRewriter(EXTIP 192.168.100.1, CAPACITY 65536)"
	const to = "IPRewriter(EXTIP 192.168.100.1, CAPACITY 4096, EMBRYONIC_MS 2, CLOSING_MS 1, UDP_MS 2, ESTABLISHED_MS 20)"
	c := nf.NATRouter(32)
	if !strings.Contains(c, from) {
		panic("perfbench: nf.NATRouter no longer declares " + from)
	}
	return strings.Replace(c, from, to, 1)
}
