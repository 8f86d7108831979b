package main

import (
	"time"

	"packetmill/internal/click"
	"packetmill/internal/machine"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
)

// engine is the benchmark's testbed.Engine around one core's router. It
// steps the router exactly as the testbed's own adapter does, counts
// steps, and — when timed — adds each Step's wall time to busyNS.
type engine struct {
	rt    *click.Router
	ec    click.ExecCtx
	timed bool
	// onFirstStep, when set, runs once before the first Step: the wire
	// workload starts its generator there, after the PMD has posted its
	// RX buffers.
	onFirstStep func()
	// modelCycles, when set, sums the modeled busy cycles of the steps
	// that moved packets into workCycles — on a live wire the serve loop
	// spins, and empty polls would otherwise swamp the per-packet cost —
	// and records each such step's modeled duration in stepLat, once per
	// packet it moved: run to completion, a frame's modeled time in the
	// DUT is the step that carried it.
	modelCycles bool
	stepLat     *trace.Hist

	steps, empty uint64
	busyNS       int64
	workCycles   float64
}

var _ testbed.Engine = (*engine)(nil)

// Step implements testbed.Engine.
func (e *engine) Step(core *machine.Core, now float64) int {
	if f := e.onFirstStep; f != nil {
		e.onFirstStep = nil
		f()
	}
	e.ec.Core, e.ec.Now, e.ec.Rt = core, now, e.rt
	var t0 time.Time
	if e.timed {
		t0 = time.Now()
	}
	var c0 float64
	if e.modelCycles {
		c0 = core.Snapshot().BusyCycles
	}
	n := e.rt.Step(&e.ec)
	if e.timed {
		e.busyNS += int64(time.Since(t0))
	}
	if e.modelCycles && n > 0 {
		c := core.Snapshot().BusyCycles - c0
		e.workCycles += c
		for i := 0; i < n; i++ {
			e.stepLat.Record(c / core.FreqGHz)
		}
	}
	e.steps++
	if n == 0 {
		e.empty++
	}
	return n
}

// DropStats exposes the router's reason-coded drops to the harness.
func (e *engine) DropStats() *stats.DropCounters { return &e.rt.DropStats }

// TxBacklog sums packets queued behind full TX rings, so the harness
// keeps running until they flush.
func (e *engine) TxBacklog() int {
	total := 0
	for _, inst := range e.rt.Instances {
		if tb, ok := inst.El.(interface{ TxBacklog() int }); ok {
			total += tb.TxBacklog()
		}
	}
	return total
}

// source feeds one phase of a workload from the build's generator. It
// offers limit frames, timing arrivals itself from clockNS on: back to
// back at lineGbps when that is set, else as a Poisson process with
// meanGapNS between frames. It marks the process CPU time every chunk
// frames and, when timed, adds each Next's wall time to busyNS.
type source struct {
	src       trafficgen.Source
	limit     int
	clockNS   float64
	lineGbps  float64
	meanGapNS float64
	gaps      *expGaps

	chunk int
	marks []int64
	n     int
	timed bool

	busyNS int64
}

// Next implements trafficgen.Source.
func (s *source) Next() ([]byte, float64, bool) {
	if s.n >= s.limit {
		return nil, 0, false
	}
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	f, _, ok := s.src.Next()
	if s.timed {
		s.busyNS += int64(time.Since(t0))
	}
	if !ok {
		return nil, 0, false
	}
	if s.chunk > 0 && s.n%s.chunk == 0 {
		s.marks = append(s.marks, cpuNS())
	}
	s.n++
	ns := s.clockNS
	if s.lineGbps > 0 {
		s.clockNS += float64(len(f)+trafficgen.WireOverheadBytes) * 8 / s.lineGbps
	} else {
		s.clockNS += s.meanGapNS * s.gaps.next()
	}
	return f, ns, true
}

// Remaining implements trafficgen.Source.
func (s *source) Remaining() int { return s.limit - s.n }

// port decorates a nic.Port: it counts polls and, when timed, the wall
// time spent in Poll, Enqueue and Reap. Everything else passes through.
type port struct {
	nic.Port
	timed bool

	polls, emptyPolls, enqueues, reaps uint64
	pollNS, enqueueNS, reapNS          int64
}

var _ nic.Port = (*port)(nil)

// Poll implements nic.Port.
func (p *port) Poll(core *machine.Core, nowNS float64, max int, pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	return p.poll(false, core, nowNS, max, pkts, descs)
}

// PollCompressed implements nic.Port through the same accounting.
func (p *port) PollCompressed(core *machine.Core, nowNS float64, max int, pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	return p.poll(true, core, nowNS, max, pkts, descs)
}

func (p *port) poll(compressed bool, core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	var n int
	if compressed {
		n = p.Port.PollCompressed(core, nowNS, max, pkts, descs)
	} else {
		n = p.Port.Poll(core, nowNS, max, pkts, descs)
	}
	if p.timed {
		p.pollNS += int64(time.Since(t0))
	}
	p.polls++
	if n == 0 {
		p.emptyPolls++
	}
	return n
}

// Enqueue implements nic.Port.
func (p *port) Enqueue(core *machine.Core, pkt *pktbuf.Packet, nowNS float64) bool {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	ok := p.Port.Enqueue(core, pkt, nowNS)
	if p.timed {
		p.enqueueNS += int64(time.Since(t0))
	}
	p.enqueues++
	return ok
}

// Reap implements nic.Port.
func (p *port) Reap(nowNS float64, out []*pktbuf.Packet) int {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	n := p.Port.Reap(nowNS, out)
	if p.timed {
		p.reapNS += int64(time.Since(t0))
	}
	p.reaps++
	return n
}
