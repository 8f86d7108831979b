// IP-layer elements: Strip/Unstrip, CheckIPHeader, DecIPTTL,
// LookupIPRoute — the spine of the standard router (Appendix A.2).
package elements

import (
	"fmt"
	"strings"

	"packetmill/internal/click"
	"packetmill/internal/layout"
	"packetmill/internal/lpm"
	"packetmill/internal/netpkt"
	"packetmill/internal/pktbuf"
)

func init() {
	click.Register("Strip", func() click.Element { return &Strip{} })
	click.Register("Unstrip", func() click.Element { return &Unstrip{} })
	click.Register("CheckIPHeader", func() click.Element { return &CheckIPHeader{} })
	click.Register("DecIPTTL", func() click.Element { return &DecIPTTL{} })
	click.Register("LookupIPRoute", func() click.Element { return &LookupIPRoute{} })
}

// Strip removes n bytes from the front of each packet.
type Strip struct {
	click.Base
	N int
}

// Class implements click.Element.
func (e *Strip) Class() string { return "Strip" }

// Configure implements click.Element.
func (e *Strip) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	if len(args) != 1 {
		return fmt.Errorf("Strip: want one length argument")
	}
	n, err := click.ParseInt(args[0])
	if err != nil {
		return err
	}
	e.N = n
	bc.AllocState(0, 1)
	return nil
}

// Push implements click.Element.
func (e *Strip) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	e.Inst.LoadParam(ec, 0)
	b.ForEach(ec.Core, func(p *pktbuf.Packet) bool {
		if p.Len() >= e.N {
			p.Pull(e.N)
		}
		ec.Core.Compute(6)
		return true
	})
	e.Inst.Output(ec, 0, b)
}

// Unstrip restores n bytes at the front.
type Unstrip struct {
	click.Base
	N int
}

// Class implements click.Element.
func (e *Unstrip) Class() string { return "Unstrip" }

// Configure implements click.Element.
func (e *Unstrip) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	if len(args) != 1 {
		return fmt.Errorf("Unstrip: want one length argument")
	}
	n, err := click.ParseInt(args[0])
	if err != nil {
		return err
	}
	e.N = n
	bc.AllocState(0, 1)
	return nil
}

// Push implements click.Element.
func (e *Unstrip) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	e.Inst.LoadParam(ec, 0)
	b.ForEach(ec.Core, func(p *pktbuf.Packet) bool {
		if p.Headroom() >= e.N {
			p.Push(e.N)
		}
		ec.Core.Compute(6)
		return true
	})
	e.Inst.Output(ec, 0, b)
}

// CheckIPHeader validates the IPv4 header (version, IHL, length, full
// checksum) and records the network-header annotation. Bad packets go to
// output 1 or die.
type CheckIPHeader struct {
	click.Base
	Offset int

	// Bad counts rejected packets.
	Bad uint64

	good, bad pktbuf.Batch // per-element scratch, reset each push
}

// Class implements click.Element.
func (e *CheckIPHeader) Class() string { return "CheckIPHeader" }

// Configure implements click.Element. Args: [OFFSET n].
func (e *CheckIPHeader) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	kw, pos := click.KeywordArgs(args)
	if v, ok := kw["OFFSET"]; ok {
		n, err := click.ParseInt(v)
		if err != nil {
			return err
		}
		e.Offset = n
	} else if len(pos) > 0 {
		n, err := click.ParseInt(pos[0])
		if err != nil {
			return err
		}
		e.Offset = n
	}
	bc.AllocState(16, 1)
	return nil
}

// Push implements click.Element.
func (e *CheckIPHeader) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	good, bad := &e.good, &e.bad
	good.Reset()
	bad.Reset()
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		if p.Len() < e.Offset+netpkt.IPv4HdrLen {
			e.Bad++
			bad.Append(core, p)
			return true
		}
		hdr := p.Load(core, e.Offset, netpkt.IPv4HdrLen)
		// Version/IHL/length checks plus the ten-add checksum walk.
		core.Compute(64)
		h, _, err := netpkt.ParseIPv4Header(hdr)
		if err != nil || !netpkt.VerifyIPv4Checksum(hdr) ||
			int(h.TotalLen) > p.Len()-e.Offset || int(h.TotalLen) < netpkt.IPv4HdrLen {
			e.Bad++
			bad.Append(core, p)
			return true
		}
		if p.Meta.L.Has(layout.FieldNetworkHeader) {
			p.Meta.Set(core, layout.FieldNetworkHeader, uint64(p.DataAddr())+uint64(e.Offset))
		}
		// The destination-address annotation feeds LookupIPRoute, as in
		// Click's SetIPAddress/CheckIPHeader convention.
		if p.Meta.L.Has(layout.FieldAnnoDstIP) {
			p.Meta.Set(core, layout.FieldAnnoDstIP, uint64(h.Dst.Uint32()))
		}
		good.Append(core, p)
		return true
	})
	e.CheckedOutput(ec, 1, bad)
	if !good.Empty() {
		e.Inst.Output(ec, 0, good)
	}
}

// DecIPTTL decrements TTL with an incremental checksum patch; expired
// packets go to output 1 or die.
type DecIPTTL struct {
	click.Base
	Offset int

	// Expired counts TTL-exceeded packets.
	Expired uint64

	live, dead pktbuf.Batch // per-element scratch, reset each push
}

// Class implements click.Element.
func (e *DecIPTTL) Class() string { return "DecIPTTL" }

// Configure implements click.Element.
func (e *DecIPTTL) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	if len(args) > 0 {
		n, err := click.ParseInt(args[0])
		if err != nil {
			return err
		}
		e.Offset = n
	}
	bc.AllocState(8, 1)
	return nil
}

// Push implements click.Element.
func (e *DecIPTTL) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	live, dead := &e.live, &e.dead
	live.Reset()
	dead.Reset()
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		if p.Len() < e.Offset+netpkt.IPv4HdrLen {
			dead.Append(core, p)
			return true
		}
		hdr := p.Load(core, e.Offset, netpkt.IPv4HdrLen)
		core.Compute(22)
		if !netpkt.DecrementTTL(hdr) {
			e.Expired++
			dead.Append(core, p)
			return true
		}
		p.Store(core, e.Offset+8, 4) // dirty TTL+checksum bytes
		live.Append(core, p)
		return true
	})
	e.CheckedOutput(ec, 1, dead)
	if !live.Empty() {
		e.Inst.Output(ec, 0, live)
	}
}

// LookupIPRoute routes on the destination-address annotation through a
// DIR-24-8 table; output port = route's port argument. Like Click's
// lookup elements it decides packet by packet, so the vanilla binary pays
// per-packet virtual dispatch here.
type LookupIPRoute struct {
	click.Base
	table  *lpm.Table
	nports int

	outs []pktbuf.Batch // per-output scratch, reset each push
	dead pktbuf.Batch
}

// Class implements click.Element.
func (e *LookupIPRoute) Class() string { return "LookupIPRoute" }

// BatchAware implements click.BatchElement.
func (e *LookupIPRoute) BatchAware() bool { return false }

// parseRouteArg parses one route argument — "prefix/len port" or
// "prefix/len gateway port" — shared with the fused IP path element.
func parseRouteArg(a string) (r lpm.Route, err error) {
	fields := strings.Fields(a)
	if len(fields) < 2 || len(fields) > 3 {
		return r, fmt.Errorf("LookupIPRoute: bad route %q", a)
	}
	r.Length = 32
	addr := fields[0]
	if i := strings.IndexByte(addr, '/'); i >= 0 {
		if r.Length, err = click.ParseInt(addr[i+1:]); err != nil {
			return r, err
		}
		addr = addr[:i]
	}
	prefix, err := netpkt.ParseIPv4(addr)
	if err != nil {
		return r, err
	}
	r.Prefix = prefix.Uint32()
	if len(fields) == 3 {
		gw, err := netpkt.ParseIPv4(fields[1])
		if err != nil {
			return r, err
		}
		r.NextHop.Gateway = gw.Uint32()
	}
	r.NextHop.Port, err = click.ParseInt(fields[len(fields)-1])
	return r, err
}

// Configure implements click.Element. Each arg: "prefix/len port" or
// "prefix/len gateway port".
func (e *LookupIPRoute) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	if len(args) == 0 {
		return fmt.Errorf("LookupIPRoute: no routes")
	}
	routes := make([]lpm.Route, len(args))
	for i, a := range args {
		r, err := parseRouteArg(a)
		if err != nil {
			return err
		}
		routes[i] = r
		e.nports = max(e.nports, r.NextHop.Port+1)
	}
	var err error
	if e.table, err = lpm.Build(bc.Huge, routes); err != nil {
		return err
	}
	bc.AllocState(64, 1)
	e.outs = make([]pktbuf.Batch, e.nports)
	return nil
}

// NOutputs implements click.Element.
func (e *LookupIPRoute) NOutputs() int { return e.nports }

// Push implements click.Element.
func (e *LookupIPRoute) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	outs := e.outs
	for i := range outs {
		outs[i].Reset()
	}
	dead := &e.dead
	dead.Reset()
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		var dst uint32
		if p.Meta.L.Has(layout.FieldAnnoDstIP) {
			dst = uint32(p.Meta.Get(core, layout.FieldAnnoDstIP))
		} else if p.Len() >= 20 {
			// No annotation space (minimal descriptors): reread the
			// header.
			hdr := p.Load(core, 16, 4)
			dst = uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		}
		core.Compute(18)
		nh, ok := e.table.Lookup(core, dst)
		if !ok || nh.Port >= e.nports {
			dead.Append(core, p)
			return true
		}
		// Record the gateway for ARPQuerier, like SetIPAddress does.
		if nh.Gateway != 0 && p.Meta.L.Has(layout.FieldAnnoDstIP) {
			p.Meta.Set(core, layout.FieldAnnoDstIP, uint64(nh.Gateway))
		}
		outs[nh.Port].Append(core, p)
		return true
	})
	ec.Rt.Kill(ec, dead)
	for i := range outs {
		if !outs[i].Empty() {
			e.CheckedOutput(ec, i, &outs[i])
		}
	}
}
