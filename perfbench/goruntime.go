package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
)

// rtSample is one reading of the Go runtime's own counters. The
// allocation counts come from runtime.ReadMemStats, which flushes every
// per-P cache first; runtime/metrics' allocation counters lag until
// those caches flush, which made allocs/packet wander between runs.
type rtSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	gcCycles                 uint64
	sched                    *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{
		allocObjects: ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		gcCycles:     s[2].Value.Uint64(),
		sched:        s[3].Value.Float64Histogram(),
	}
}

// schedP99US is the 99th percentile of goroutine scheduling latency
// between two readings, in µs: the upper edge of the bucket holding it.
func schedP99US(before, after rtSample) float64 {
	counts := after.sched.Counts
	var total uint64
	delta := make([]uint64, len(counts))
	for i := range counts {
		delta[i] = counts[i]
		if i < len(before.sched.Counts) {
			delta[i] -= before.sched.Counts[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen > want {
			edge := after.sched.Buckets[i+1]
			if edge > 1e9 { // the last bucket is unbounded
				edge = after.sched.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// liveHeapMiB collects garbage and returns the heap still reachable: the
// memory a build and its run state hold. The resident-set high-water
// mark would also count garbage awaiting collection, which depends on
// when the collector happened to run and wandered by a tenth between
// runs.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuNS is the CPU time the process has used, user and system, across
// all its threads. Host cost per packet is measured in it rather than in
// wall time: on a shared virtual machine wall time also counts the
// intervals the hypervisor gives the CPU to other tenants, and those
// bursts, not the datapath, set a wall-clock tail.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
