// Package lpm implements longest-prefix-match IPv4 route lookup, modeled
// as a DIR-24-8 table (the classic two-level scheme DPDK's rte_lpm uses):
// one 2^24-entry first level indexed by the top 24 address bits, and
// overflow groups of 256 entries for prefixes longer than /24. Lookups
// charge the simulator exactly those reads at the table's simulated
// address: one for the common case, two under a slot that owns a group.
//
// The host does not hold the 2^24 slots. Build reduces the route set to
// its disjoint elementary address intervals, each mapped to the winning
// next hop, plus the sorted tbl24 slots that own a tbl8 group, so host
// memory and build time scale with the route set, not the address space.
package lpm

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"packetmill/internal/machine"
	"packetmill/internal/memsim"
)

// maxIndex bounds next-hop indexes and tbl8 group numbers: a DIR-24-8
// entry keeps either in 14 bits.
const maxIndex = 0x3fff

// Route is one prefix/length -> next-hop entry.
type Route struct {
	Prefix  uint32
	Length  int
	NextHop NextHop
}

// Table is an immutable LPM table. Create with Build.
type Table struct {
	// starts[i] is the first address of elementary interval i, which
	// runs up to starts[i+1]-1 (the last one to 2^32-1); starts[0] == 0.
	starts []uint32
	// hops[i] indexes nextHops for interval i; -1 means no route.
	hops     []int32
	nextHops []NextHop
	// slots lists, ascending, the tbl24 slots that own a tbl8 group;
	// groups[i] is slots[i]'s group number.
	slots  []uint32
	groups []uint32
	// base is the table's simulated address; lookups charge reads here.
	base memsim.Addr
}

// NextHop is the routing decision payload.
type NextHop struct {
	Port    int
	Gateway uint32 // next-hop IP (0 = directly connected)
}

// Build allocates the table's simulated 32-MiB tbl24 region in arena (the
// tbl8 groups follow it) and installs routes. The longest matching prefix
// wins; between two equal prefixes the later route wins. Groups are
// numbered like rte_lpm allocates them: in order of the first /25../32
// route under each tbl24 slot.
func Build(arena *memsim.Arena, routes []Route) (*Table, error) {
	t := &Table{base: arena.Alloc((1<<24)*2, memsim.PageSize)}
	group := map[uint32]uint32{}
	bounds := []uint32{0}
	for i, r := range routes {
		if r.Length < 0 || r.Length > 32 {
			return nil, fmt.Errorf("lpm: bad prefix length %d", r.Length)
		}
		if i >= maxIndex {
			return nil, fmt.Errorf("lpm: next-hop table full")
		}
		t.nextHops = append(t.nextHops, r.NextHop)
		lo, hi := span(r)
		if _, ok := group[lo>>8]; r.Length > 24 && !ok {
			if len(group) > maxIndex {
				return nil, fmt.Errorf("lpm: tbl8 space exhausted")
			}
			group[lo>>8] = uint32(len(group))
			t.slots = append(t.slots, lo>>8)
		}
		bounds = append(bounds, lo)
		if hi != math.MaxUint32 {
			bounds = append(bounds, hi+1)
		}
	}
	slices.Sort(bounds)
	t.starts = slices.Compact(bounds)
	slices.Sort(t.slots)
	for _, s := range t.slots {
		t.groups = append(t.groups, group[s])
	}
	t.hops = make([]int32, len(t.starts))
	for i := range t.hops {
		t.hops[i] = -1
	}
	// Paint shortest prefixes first, equal lengths in route order, so the
	// longest prefix ends on top and the later of two equal routes wins.
	order := make([]int, len(routes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(routes[a].Length, routes[b].Length) })
	for _, i := range order {
		lo, hi := span(routes[i])
		for j := count(t.starts, lo) - 1; j < len(t.starts) && t.starts[j] <= hi; j++ {
			t.hops[j] = int32(i)
		}
	}
	return t, nil
}

// span returns the first and last address r's prefix covers.
func span(r Route) (lo, hi uint32) {
	mask := uint32(0)
	if r.Length > 0 {
		mask = ^uint32(0) << (32 - r.Length)
	}
	return r.Prefix & mask, r.Prefix | ^mask
}

// count returns how many entries of the ascending s are <= x.
func count(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// group returns the tbl8 group tbl24 slot owns, if any.
func (t *Table) group(slot uint32) (uint32, bool) {
	if i := count(t.slots, slot); i > 0 && t.slots[i-1] == slot {
		return t.groups[i-1], true
	}
	return 0, false
}

// Routes returns the number of installed routes.
func (t *Table) Routes() int { return len(t.nextHops) }

// Lookup resolves addr, charging the DIR-24-8 reads to core (one 2-byte
// read in tbl24, plus one in tbl8 under a slot that owns a group). ok is
// false when no route matches.
func (t *Table) Lookup(core *machine.Core, addr uint32) (NextHop, bool) {
	slot := addr >> 8
	core.Load(t.base+memsim.Addr(slot*2), 2)
	if grp, ok := t.group(slot); ok {
		// tbl8 lives after tbl24 in our simulated address space.
		core.Load(t.base+memsim.Addr((1<<24)*2+(grp*256+addr&0xff)*2), 2)
	}
	return t.LookupNoCharge(addr)
}

// LookupNoCharge resolves addr without touching the simulator — for tests
// and control-plane use.
func (t *Table) LookupNoCharge(addr uint32) (NextHop, bool) {
	h := t.hops[count(t.starts, addr)-1]
	if h < 0 {
		return NextHop{}, false
	}
	return t.nextHops[h], true
}
