// Fused elements: single-traversal replacements for hot element chains,
// installed by the mill's profile-guided fusion pass. Each fused element
// is the moral equivalent of the code a source-to-source specializer
// would emit for the whole chain — the packet's header is loaded once and
// every constituent's decision runs against that one copy — while drop
// semantics stay byte-for-byte identical to the original chain
// (CheckedOutput on an unwired port kills, exactly like the originals).
//
// Per-element attribution survives fusion: the fused Push opens a split
// telemetry span (Tracker.EnterShares) whose cost is distributed across
// the original instance names pro-rata by the profile shares the mill
// embedded at fusion time, so reports keep showing CheckIPHeader,
// LookupIPRoute, ... as if the chain were never collapsed.
package elements

import (
	"fmt"
	"strconv"
	"strings"

	"packetmill/internal/click"
	"packetmill/internal/layout"
	"packetmill/internal/lpm"
	"packetmill/internal/netpkt"
	"packetmill/internal/pktbuf"
	"packetmill/internal/telemetry"
)

func init() {
	click.Register("FusedIPPath", func() click.Element { return &FusedIPPath{} })
	click.Register("FusedL4Check", func() click.Element { return &FusedL4Check{} })
}

// FusedChain is one fusable chain pattern: a sequence of element classes
// plus a builder that emits the fused declaration for a concrete match.
type FusedChain struct {
	// Classes is the chain's class sequence, in connection order.
	Classes []string
	// Build returns the fused declaration replacing the matched chain
	// (decls are the concrete elements, len(decls) == len(Classes)), or
	// nil when the concrete arguments don't qualify — e.g. the
	// constituents disagree on header offsets.
	Build func(name string, decls []*click.ElementDecl) *click.ElementDecl
}

// FusableChains lists the registered patterns, longest first, so the
// fusion pass greedily collapses the biggest chain it can prove safe.
func FusableChains() []FusedChain {
	return []FusedChain{
		{Classes: []string{"Strip", "CheckIPHeader", "LookupIPRoute", "DecIPTTL"}, Build: buildFusedIPPath},
		{Classes: []string{"CheckIPHeader", "LookupIPRoute", "DecIPTTL"}, Build: buildFusedIPPath},
		{Classes: []string{"Strip", "CheckIPHeader", "LookupIPRoute"}, Build: buildFusedIPPath},
		{Classes: []string{"CheckIPHeader", "LookupIPRoute"}, Build: buildFusedIPPath},
		{Classes: []string{"CheckTCPHeader", "CheckUDPHeader", "CheckICMPHeader"}, Build: buildFusedL4Check},
	}
}

// declArgOffset extracts the single positional/OFFSET argument the IP and
// L4 check elements use (default def when absent).
func declArgOffset(d *click.ElementDecl, def int) (int, bool) {
	kw, pos := click.KeywordArgs(d.Args)
	s := ""
	if v, ok := kw["OFFSET"]; ok {
		s = v
	} else if len(pos) > 0 {
		s = pos[0]
	} else {
		return def, true
	}
	n, err := click.ParseInt(s)
	if err != nil {
		return 0, false
	}
	return n, true
}

// buildFusedIPPath emits a FusedIPPath declaration for a matched
// [Strip,] CheckIPHeader, LookupIPRoute [, DecIPTTL] chain.
func buildFusedIPPath(name string, decls []*click.ElementDecl) *click.ElementDecl {
	var args []string
	i := 0
	if decls[i].Class == "Strip" {
		if len(decls[i].Args) != 1 {
			return nil
		}
		n, err := click.ParseInt(decls[i].Args[0])
		if err != nil {
			return nil
		}
		args = append(args, fmt.Sprintf("STRIP %d", n))
		i++
	}
	off, ok := declArgOffset(decls[i], 0)
	if !ok {
		return nil
	}
	args = append(args, fmt.Sprintf("OFFSET %d", off))
	i++ // CheckIPHeader

	rt := decls[i]
	if len(rt.Args) == 0 {
		return nil
	}
	for _, a := range rt.Args {
		if _, err := parseRouteArg(a); err != nil {
			return nil
		}
		args = append(args, "ROUTE "+a)
	}
	i++ // LookupIPRoute

	if i < len(decls) && decls[i].Class == "DecIPTTL" {
		// DecIPTTL must look at the same header CheckIPHeader validated,
		// or the fused single-load walk would change semantics.
		toff := 0
		if len(decls[i].Args) > 0 {
			n, err := click.ParseInt(decls[i].Args[0])
			if err != nil {
				return nil
			}
			toff = n
		}
		if toff != off {
			return nil
		}
		args = append(args, "TTL 1")
	}
	return &click.ElementDecl{Name: name, Class: "FusedIPPath", Args: args}
}

// buildFusedL4Check emits a FusedL4Check declaration for a matched
// CheckTCPHeader, CheckUDPHeader, CheckICMPHeader chain.
func buildFusedL4Check(name string, decls []*click.ElementDecl) *click.ElementDecl {
	off, ok := declArgOffset(decls[0], netpkt.EtherHdrLen)
	if !ok {
		return nil
	}
	for _, d := range decls[1:] {
		o, ok := declArgOffset(d, netpkt.EtherHdrLen)
		if !ok || o != off {
			return nil
		}
	}
	return &click.ElementDecl{
		Name: name, Class: "FusedL4Check",
		Args: []string{fmt.Sprintf("OFFSET %d", off)},
	}
}

// parseShares parses a "SHARES name:weight ..." argument into telemetry
// span parts.
func parseShares(fields []string) ([]telemetry.SharePart, error) {
	var parts []telemetry.SharePart
	for _, f := range fields {
		i := strings.LastIndexByte(f, ':')
		if i <= 0 {
			return nil, fmt.Errorf("bad share %q", f)
		}
		w, err := strconv.ParseFloat(f[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad share %q: %v", f, err)
		}
		parts = append(parts, telemetry.SharePart{Name: f[:i], Share: w})
	}
	return parts, nil
}

// FusedIPPath is the milled router spine: [Strip →] CheckIPHeader →
// LookupIPRoute [→ DecIPTTL] collapsed into one element that loads the
// IPv4 header once and runs validation, route lookup, and TTL decrement
// against that single copy. Outputs mirror LookupIPRoute's port space
// (with the TTL stage applied on port 0, where the original chain hung
// DecIPTTL); bad, expired, and routeless packets die exactly like the
// original chain's unwired bad ports.
type FusedIPPath struct {
	click.Base
	HasStrip bool
	StripN   int
	Offset   int
	HasTTL   bool

	table  *lpm.Table
	nports int

	// Bad / Expired / NoRoute mirror the constituents' reject counters.
	Bad     uint64
	Expired uint64
	NoRoute uint64

	parts []telemetry.SharePart

	outs []pktbuf.Batch // per-output scratch, reset each push
	dead pktbuf.Batch
}

// Class implements click.Element.
func (e *FusedIPPath) Class() string { return "FusedIPPath" }

// Configure implements click.Element. Args: [STRIP n,] OFFSET n,
// ROUTE prefix/len [gw] port, ..., [TTL 1,] [SHARES name:w ...].
func (e *FusedIPPath) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	var routes []lpm.Route
	for _, a := range args {
		fields := strings.Fields(a)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "STRIP":
			n, err := click.ParseInt(fields[1])
			if err != nil {
				return err
			}
			e.HasStrip, e.StripN = true, n
		case "OFFSET":
			n, err := click.ParseInt(fields[1])
			if err != nil {
				return err
			}
			e.Offset = n
		case "TTL":
			e.HasTTL = true
		case "ROUTE":
			r, err := parseRouteArg(strings.Join(fields[1:], " "))
			if err != nil {
				return err
			}
			routes = append(routes, r)
			e.nports = max(e.nports, r.NextHop.Port+1)
		case "SHARES":
			parts, err := parseShares(fields[1:])
			if err != nil {
				return fmt.Errorf("FusedIPPath: %w", err)
			}
			e.parts = parts
		default:
			return fmt.Errorf("FusedIPPath: bad argument %q", a)
		}
	}
	if len(routes) == 0 {
		return fmt.Errorf("FusedIPPath: no routes")
	}
	var err error
	if e.table, err = lpm.Build(bc.Huge, routes); err != nil {
		return err
	}
	// One state block for the whole fused unit — the chain's separate
	// element states collapse into one placement.
	bc.AllocState(96, 2)
	e.outs = make([]pktbuf.Batch, e.nports)
	return nil
}

// NOutputs implements click.Element.
func (e *FusedIPPath) NOutputs() int { return e.nports }

// Push implements click.Element.
func (e *FusedIPPath) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	if e.parts != nil {
		ec.Tel.EnterShares(telemetry.StageEngine, e.Inst.Name, e.parts)
		ec.Tel.AddPackets(b.Count())
	}
	outs := e.outs
	for i := range outs {
		outs[i].Reset()
	}
	dead := &e.dead
	dead.Reset()
	e.Inst.LoadParam(ec, 0)
	e.Inst.TouchState(ec, 0, 32)
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		if e.HasStrip {
			if p.Len() >= e.StripN {
				p.Pull(e.StripN)
			}
			core.Compute(6)
		}
		// CheckIPHeader: the chain's only header load.
		if p.Len() < e.Offset+netpkt.IPv4HdrLen {
			e.Bad++
			dead.Append(core, p)
			return true
		}
		hdr := p.Load(core, e.Offset, netpkt.IPv4HdrLen)
		core.Compute(64)
		h, _, err := netpkt.ParseIPv4Header(hdr)
		if err != nil || !netpkt.VerifyIPv4Checksum(hdr) ||
			int(h.TotalLen) > p.Len()-e.Offset || int(h.TotalLen) < netpkt.IPv4HdrLen {
			e.Bad++
			dead.Append(core, p)
			return true
		}
		if p.Meta.L.Has(layout.FieldNetworkHeader) {
			p.Meta.Set(core, layout.FieldNetworkHeader, uint64(p.DataAddr())+uint64(e.Offset))
		}
		if p.Meta.L.Has(layout.FieldAnnoDstIP) {
			p.Meta.Set(core, layout.FieldAnnoDstIP, uint64(h.Dst.Uint32()))
		}
		// LookupIPRoute: the destination is already in hand — fusion
		// elides the annotation round-trip the split chain pays.
		var dst uint32
		if p.Meta.L.Has(layout.FieldAnnoDstIP) {
			dst = h.Dst.Uint32()
		} else if p.Len() >= 20 {
			// Mirror the unfused fallback exactly (absolute offset 16).
			raw := p.Load(core, 16, 4)
			dst = uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3])
		}
		core.Compute(18)
		nh, ok := e.table.Lookup(core, dst)
		if !ok || nh.Port >= e.nports {
			e.NoRoute++
			dead.Append(core, p)
			return true
		}
		if nh.Gateway != 0 && p.Meta.L.Has(layout.FieldAnnoDstIP) {
			p.Meta.Set(core, layout.FieldAnnoDstIP, uint64(nh.Gateway))
		}
		// DecIPTTL on the continuation port, against the same header
		// bytes CheckIPHeader validated.
		if e.HasTTL && nh.Port == 0 {
			core.Compute(22)
			if !netpkt.DecrementTTL(hdr) {
				e.Expired++
				dead.Append(core, p)
				return true
			}
			p.Store(core, e.Offset+8, 4) // dirty TTL+checksum bytes
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
	if e.parts != nil {
		ec.Tel.Exit()
	}
}

// FusedL4Check is the IDS prelude — CheckTCPHeader → CheckUDPHeader →
// CheckICMPHeader — collapsed into one element that parses the IP header
// once and dispatches on the protocol instead of filtering three times.
// A packet of any other protocol passes through, exactly like the chain.
type FusedL4Check struct {
	click.Base
	Offset int

	// BadTCP / BadUDP / BadICMP mirror the constituents' counters.
	BadTCP  uint64
	BadUDP  uint64
	BadICMP uint64

	parts []telemetry.SharePart

	good, bad pktbuf.Batch // per-element scratch, reset each push
}

// Class implements click.Element.
func (e *FusedL4Check) Class() string { return "FusedL4Check" }

// Configure implements click.Element. Args: OFFSET n, [SHARES name:w ...].
func (e *FusedL4Check) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	e.Offset = netpkt.EtherHdrLen
	for _, a := range args {
		fields := strings.Fields(a)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "OFFSET":
			n, err := click.ParseInt(fields[1])
			if err != nil {
				return err
			}
			e.Offset = n
		case "SHARES":
			parts, err := parseShares(fields[1:])
			if err != nil {
				return fmt.Errorf("FusedL4Check: %w", err)
			}
			e.parts = parts
		default:
			return fmt.Errorf("FusedL4Check: bad argument %q", a)
		}
	}
	bc.AllocState(24, 1)
	return nil
}

// Push implements click.Element.
func (e *FusedL4Check) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	if e.parts != nil {
		ec.Tel.EnterShares(telemetry.StageEngine, e.Inst.Name, e.parts)
		ec.Tel.AddPackets(b.Count())
	}
	good, bad := &e.good, &e.bad
	good.Reset()
	bad.Reset()
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		l4, proto, ipLen, ok := ipHeaderAt(ec, p, e.Offset)
		if !ok {
			// Malformed IP dies at the first checker in the chain.
			e.BadTCP++
			bad.Append(core, p)
			return true
		}
		// One protocol dispatch replaces the chain's three pass-through
		// filters.
		core.Compute(8)
		switch proto {
		case netpkt.ProtoTCP:
			if p.Len() >= l4+netpkt.TCPHdrLen {
				seg := p.Load(core, l4, netpkt.TCPHdrLen)
				core.Compute(48)
				th, hdrLen, err := netpkt.ParseTCP(seg)
				segLen := ipLen - (l4 - e.Offset)
				if err == nil && segLen >= hdrLen &&
					th.Flags&(netpkt.TCPFlagSYN|netpkt.TCPFlagFIN) != (netpkt.TCPFlagSYN|netpkt.TCPFlagFIN) &&
					th.Flags != 0 {
					good.Append(core, p)
					return true
				}
			}
			e.BadTCP++
		case netpkt.ProtoUDP:
			if p.Len() >= l4+netpkt.UDPHdrLen {
				seg := p.Load(core, l4, netpkt.UDPHdrLen)
				core.Compute(28)
				uh, err := netpkt.ParseUDP(seg)
				if err == nil && int(uh.Length) == ipLen-(l4-e.Offset) && uh.Length >= netpkt.UDPHdrLen {
					good.Append(core, p)
					return true
				}
			}
			e.BadUDP++
		case netpkt.ProtoICMP:
			if p.Len() >= l4+netpkt.ICMPHdrLen {
				seg := p.Load(core, l4, netpkt.ICMPHdrLen)
				core.Compute(22)
				h, err := netpkt.ParseICMP(seg)
				if err == nil && h.Type <= 18 {
					good.Append(core, p)
					return true
				}
			}
			e.BadICMP++
		default:
			// Unhandled protocols pass every checker.
			good.Append(core, p)
			return true
		}
		bad.Append(core, p)
		return true
	})
	e.CheckedOutput(ec, 1, bad)
	if !good.Empty() {
		e.Inst.Output(ec, 0, good)
	}
	if e.parts != nil {
		ec.Tel.Exit()
	}
}
