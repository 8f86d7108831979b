package lpm

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
)

func newArena() *memsim.Arena { return memsim.NewArena("lpm", memsim.HeapBase, 1<<28) }

func build(t testing.TB, routes ...Route) *Table {
	t.Helper()
	tb, err := Build(newArena(), routes)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func route(prefix string, length, port int) Route {
	return Route{Prefix: ip(prefix), Length: length, NextHop: NextHop{Port: port}}
}

func ip(s string) uint32 {
	v, err := netpkt.ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return v.Uint32()
}

// dir248 is the reference oracle: a literal DIR-24-8 table holding all
// 2^24 tbl24 slots, installed route by route the way rte_lpm does.
type dir248 struct {
	tbl24    []uint16 // 2^24 entries
	tbl8     []uint16 // groups of 256
	depth24  []uint8
	depth8   []uint8
	nextHops []NextHop
	base     memsim.Addr
}

// Entry encoding: bit 15 = valid, bit 14 = indirect (points into tbl8),
// low 14 bits = next-hop index or tbl8 group number.
const (
	flagValid    = 1 << 15
	flagIndirect = 1 << 14
	valueMask    = 0x3fff
)

func newDir248(arena *memsim.Arena) *dir248 {
	return &dir248{
		tbl24:   make([]uint16, 1<<24),
		depth24: make([]uint8, 1<<24),
		base:    arena.Alloc((1<<24)*2, memsim.PageSize),
	}
}

// reset empties the table for reuse, keeping its 48 MiB of slots.
func (t *dir248) reset(arena *memsim.Arena) {
	clear(t.tbl24)
	clear(t.depth24)
	t.tbl8, t.depth8, t.nextHops = t.tbl8[:0], t.depth8[:0], t.nextHops[:0]
	t.base = arena.Alloc((1<<24)*2, memsim.PageSize)
}

func maskOf(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

func (t *dir248) addRoute(prefix uint32, length int, nh NextHop) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("lpm: bad prefix length %d", length)
	}
	if len(t.nextHops) >= valueMask {
		return fmt.Errorf("lpm: next-hop table full")
	}
	nhIdx := uint16(len(t.nextHops))
	t.nextHops = append(t.nextHops, nh)
	prefix &= maskOf(length)

	if length <= 24 {
		start := prefix >> 8
		count := uint32(1) << (24 - length)
		for i := start; i < start+count; i++ {
			e := t.tbl24[i]
			if e&flagValid != 0 && e&flagIndirect != 0 {
				grp := uint32(e & valueMask)
				for j := uint32(0); j < 256; j++ {
					k := grp*256 + j
					if t.depth8[k] <= uint8(length) {
						t.tbl8[k] = flagValid | nhIdx
						t.depth8[k] = uint8(length)
					}
				}
				continue
			}
			if t.depth24[i] <= uint8(length) {
				t.tbl24[i] = flagValid | nhIdx
				t.depth24[i] = uint8(length)
			}
		}
		return nil
	}

	slot := prefix >> 8
	e := t.tbl24[slot]
	var grp uint32
	if e&flagValid != 0 && e&flagIndirect != 0 {
		grp = uint32(e & valueMask)
	} else {
		grp = uint32(len(t.tbl8) / 256)
		if grp > valueMask {
			return fmt.Errorf("lpm: tbl8 space exhausted")
		}
		seed, seedDepth := uint16(0), uint8(0)
		if e&flagValid != 0 {
			seed, seedDepth = e, t.depth24[slot]
		}
		for j := 0; j < 256; j++ {
			t.tbl8 = append(t.tbl8, seed)
			t.depth8 = append(t.depth8, seedDepth)
		}
		t.tbl24[slot] = flagValid | flagIndirect | uint16(grp)
	}
	start := prefix & 0xff
	count := uint32(1) << (32 - length)
	for j := start; j < start+count; j++ {
		k := grp*256 + j
		if t.depth8[k] <= uint8(length) {
			t.tbl8[k] = flagValid | nhIdx
			t.depth8[k] = uint8(length)
		}
	}
	return nil
}

// lookup resolves addr, charging the reads to core, and reports the tbl8
// group the read went through (-1 for none).
func (t *dir248) lookup(core *machine.Core, addr uint32) (NextHop, bool, int) {
	i := addr >> 8
	if core != nil {
		core.Load(t.base+memsim.Addr(i*2), 2)
	}
	e := t.tbl24[i]
	if e&flagValid == 0 {
		return NextHop{}, false, -1
	}
	grp := -1
	if e&flagIndirect != 0 {
		grp = int(e & valueMask)
		k := uint32(grp)*256 + addr&0xff
		if core != nil {
			core.Load(t.base+memsim.Addr((1<<24)*2+k*2), 2)
		}
		e = t.tbl8[k]
		if e&flagValid == 0 {
			return NextHop{}, false, grp
		}
	}
	return t.nextHops[e&valueMask], true, grp
}

// oracle is one reusable DIR-24-8 table: allocating and zeroing 48 MiB
// per route set would dominate the differential and fuzz tests.
var oracle struct {
	sync.Mutex
	t *dir248
}

// checkAgainstOracle builds routes both ways and asserts the same error,
// or the same next hop, match and tbl8 group for every probe address —
// each prefix's first and last address, their neighbours, and extra.
func checkAgainstOracle(t *testing.T, routes []Route, extra []uint32) {
	t.Helper()
	oracle.Lock()
	defer oracle.Unlock()
	if oracle.t == nil {
		oracle.t = newDir248(newArena())
	}
	ref := oracle.t
	ref.reset(newArena())
	var refErr error
	for _, r := range routes {
		if refErr = ref.addRoute(r.Prefix, r.Length, r.NextHop); refErr != nil {
			break
		}
	}
	tb, err := Build(newArena(), routes)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			t.Fatalf("Build error %v, oracle error %v", err, refErr)
		}
		return
	}
	if tb.Routes() != len(routes) {
		t.Fatalf("Routes() = %d, want %d", tb.Routes(), len(routes))
	}
	probes := append([]uint32(nil), extra...)
	for _, r := range routes {
		lo, hi := span(r)
		probes = append(probes, lo, hi, lo-1, hi+1)
	}
	for _, a := range probes {
		wantNH, wantOK, wantGrp := ref.lookup(nil, a)
		nh, ok := tb.LookupNoCharge(a)
		grp := -1
		if g, indirect := tb.group(a >> 8); indirect {
			grp = int(g)
		}
		if nh != wantNH || ok != wantOK || grp != wantGrp {
			t.Fatalf("%s: got %+v ok=%v group %d, oracle %+v ok=%v group %d (routes %+v)",
				netpkt.IPv4FromUint32(a), nh, ok, grp, wantNH, wantOK, wantGrp, routes)
		}
	}
}

// randomRoutes draws a route set that overlaps heavily: prefixes cluster
// in a few /16s, lengths span /0 and /25../32, and some routes repeat an
// earlier prefix (a duplicate or an equal-length tie with a new hop).
func randomRoutes(rng *rand.Rand, n int) []Route {
	bases := []uint32{ip("10.1.0.0"), ip("10.2.0.0"), ip("192.168.0.0"), 0, ^uint32(0) &^ 0xffff}
	routes := make([]Route, 0, n)
	for len(routes) < n {
		var r Route
		switch k := rng.IntN(20); {
		case k < 2 && len(routes) > 0:
			r = routes[rng.IntN(len(routes))]
			r.Prefix |= rng.Uint32() & ^maskOf(r.Length)
		case k == 2:
			r.Length = 0
		case k == 3:
			r.Length = 1 + rng.IntN(7)
		case k < 10:
			r.Length = 25 + rng.IntN(8)
		default:
			r.Length = 8 + rng.IntN(17)
		}
		if r.Prefix == 0 {
			r.Prefix = bases[rng.IntN(len(bases))] | rng.Uint32()&0x3ff
		}
		r.NextHop = NextHop{Port: rng.IntN(8), Gateway: rng.Uint32() & 0xff}
		routes = append(routes, r)
	}
	return routes
}

func TestBuildMatchesOracle(t *testing.T) {
	// The oracle walks every tbl24 slot a short prefix covers, which is
	// slow under the race detector; short mode checks fewer sets.
	sets := 24
	if testing.Short() {
		sets = 4
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for set := 0; set < sets; set++ {
		routes := randomRoutes(rng, 1+rng.IntN(40))
		extra := make([]uint32, 2000)
		for i := range extra {
			if i%2 == 0 {
				lo, hi := span(routes[rng.IntN(len(routes))])
				extra[i] = lo + uint32(rng.Uint64N(uint64(hi-lo)+1))
			} else {
				extra[i] = rng.Uint32()
			}
		}
		checkAgainstOracle(t, routes, extra)
	}
}

func TestBuildErrorsMatchOracle(t *testing.T) {
	checkAgainstOracle(t, []Route{route("10.0.0.0", 8, 1), {Length: 33}}, nil)
	checkAgainstOracle(t, []Route{{Length: -1}, {Length: 40}}, nil)
	// The next-hop table holds 2^14-1 routes; every /32 here also takes
	// its own tbl8 group.
	routes := make([]Route, valueMask+1)
	for i := range routes {
		routes[i] = Route{Prefix: uint32(i) << 8, Length: 32, NextHop: NextHop{Port: i}}
	}
	checkAgainstOracle(t, routes[:valueMask], []uint32{0, 0x100, uint32(valueMask-1) << 8})
	if _, err := Build(newArena(), routes); err == nil || err.Error() != "lpm: next-hop table full" {
		t.Fatalf("%d routes: err %v", len(routes), err)
	}
	checkAgainstOracle(t, routes, nil)
}

// TestChargedReadsMatchOracle runs the same lookups through Build's
// table and the oracle on two identical machines: every charged read must
// land alike, so the core counters agree after each lookup.
func TestChargedReadsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	routes := randomRoutes(rng, 30)
	routes = append(routes, route("0.0.0.0", 0, 7))
	_, c1 := machine.Default(2.0)
	_, c2 := machine.Default(2.0)
	ref := newDir248(newArena())
	for _, r := range routes {
		if err := ref.addRoute(r.Prefix, r.Length, r.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	tb := build(t, routes...)
	for i := 0; i < 5000; i++ {
		a := rng.Uint32()
		if i%2 == 0 {
			lo, hi := span(routes[rng.IntN(len(routes))])
			a = lo + uint32(rng.Uint64N(uint64(hi-lo)+1))
		}
		want, wantOK, _ := ref.lookup(c1, a)
		got, ok := tb.Lookup(c2, a)
		if got != want || ok != wantOK || c1.Snapshot() != c2.Snapshot() {
			t.Fatalf("lookup %d (%s): got %+v/%v %+v, oracle %+v/%v %+v",
				i, netpkt.IPv4FromUint32(a), got, ok, c2.Snapshot(), want, wantOK, c1.Snapshot())
		}
	}
}

func TestLookupZeroAlloc(t *testing.T) {
	_, core := machine.Default(2.0)
	tb := build(t, route("0.0.0.0", 0, 1), route("10.0.0.0", 8, 2), route("10.1.2.3", 32, 3))
	addrs := []uint32{ip("10.1.2.3"), ip("10.9.9.9"), ip("8.8.8.8")}
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			tb.Lookup(core, a)
		}
	}); n != 0 {
		t.Fatalf("Lookup allocates %.1f times per run", n)
	}
}

// FuzzBuild decodes the input as routes of 6 bytes each — 4 prefix
// bytes, a length (values past 32 exercise the error path) and a port —
// and checks Build against the oracle.
func FuzzBuild(f *testing.F) {
	enc := func(routes ...Route) []byte {
		var b []byte
		for _, r := range routes {
			b = binary.BigEndian.AppendUint32(b, r.Prefix)
			b = append(b, byte(r.Length), byte(r.NextHop.Port))
		}
		return b
	}
	f.Add(enc(route("0.0.0.0", 0, 1)))
	f.Add(enc(route("10.0.0.0", 8, 1), route("10.1.0.0", 16, 2), route("10.1.2.128", 25, 3), route("10.1.2.129", 32, 4)))
	f.Add(enc(route("192.168.1.42", 32, 3), route("192.168.1.0", 24, 1), route("192.168.1.0", 24, 2)))
	f.Add(enc(route("10.1.2.0", 26, 1), route("0.0.0.0", 0, 2), route("10.1.2.0", 26, 3), route("10.1.3.0", 25, 4)))
	f.Add(enc(route("255.255.255.255", 32, 1), route("255.255.255.0", 24, 2)))
	f.Add(enc(route("10.0.0.0", 8, 1), Route{Length: 33}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var routes []Route
		for ; len(data) >= 6 && len(routes) < 64; data = data[6:] {
			routes = append(routes, Route{
				Prefix:  binary.BigEndian.Uint32(data),
				Length:  int(data[4] % 34),
				NextHop: NextHop{Port: int(data[5])},
			})
		}
		var extra []uint32
		for ; len(data) >= 4; data = data[4:] {
			extra = append(extra, binary.BigEndian.Uint32(data))
		}
		checkAgainstOracle(t, routes, extra)
	})
}

func TestDefaultRouteMatchesEverything(t *testing.T) {
	tb := build(t, Route{NextHop: NextHop{Port: 9}})
	for _, a := range []string{"0.0.0.0", "8.8.8.8", "255.255.255.255"} {
		nh, ok := tb.LookupNoCharge(ip(a))
		if !ok || nh.Port != 9 {
			t.Fatalf("lookup %s: %+v ok=%v", a, nh, ok)
		}
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tb := build(t, route("10.0.0.0", 8, 1), route("10.1.0.0", 16, 2), route("10.1.2.0", 24, 3))
	cases := []struct {
		addr string
		port int
	}{
		{"10.9.9.9", 1},
		{"10.1.9.9", 2},
		{"10.1.2.9", 3},
	}
	for _, c := range cases {
		nh, ok := tb.LookupNoCharge(ip(c.addr))
		if !ok || nh.Port != c.port {
			t.Errorf("%s -> port %d (ok=%v), want %d", c.addr, nh.Port, ok, c.port)
		}
	}
}

func TestInsertionOrderIrrelevant(t *testing.T) {
	a := build(t, route("10.0.0.0", 8, 1), route("10.1.0.0", 16, 2))
	b := build(t, route("10.1.0.0", 16, 2), route("10.0.0.0", 8, 1))
	for _, addr := range []string{"10.0.0.1", "10.1.0.1", "10.255.0.1"} {
		na, _ := a.LookupNoCharge(ip(addr))
		nb, _ := b.LookupNoCharge(ip(addr))
		if na.Port != nb.Port {
			t.Fatalf("order-dependent result for %s: %d vs %d", addr, na.Port, nb.Port)
		}
	}
}

func TestLaterEqualRouteWins(t *testing.T) {
	tb := build(t, route("10.1.2.0", 24, 1), route("10.1.2.0", 24, 2), route("10.1.2.64", 26, 3), route("10.1.2.64", 26, 4))
	for addr, want := range map[string]int{"10.1.2.1": 2, "10.1.2.70": 4} {
		if nh, _ := tb.LookupNoCharge(ip(addr)); nh.Port != want {
			t.Errorf("%s -> %d, want %d", addr, nh.Port, want)
		}
	}
}

func TestLongPrefixesUseTbl8(t *testing.T) {
	tb := build(t, route("192.168.1.0", 24, 1), route("192.168.1.128", 25, 2), route("192.168.1.42", 32, 3))
	cases := []struct {
		addr string
		port int
	}{
		{"192.168.1.1", 1},
		{"192.168.1.200", 2},
		{"192.168.1.42", 3},
	}
	for _, c := range cases {
		nh, ok := tb.LookupNoCharge(ip(c.addr))
		if !ok || nh.Port != c.port {
			t.Errorf("%s -> %d (ok=%v), want %d", c.addr, nh.Port, ok, c.port)
		}
	}
	if grp, ok := tb.group(ip("192.168.1.0") >> 8); !ok || grp != 0 {
		t.Errorf("192.168.1.0/24 slot: group %d ok=%v, want group 0", grp, ok)
	}
	if _, ok := tb.group(ip("192.168.2.0") >> 8); ok {
		t.Error("slot without a long prefix owns a group")
	}
}

func TestGroupsNumberedByFirstAppearance(t *testing.T) {
	tb := build(t, route("10.0.9.0", 25, 1), route("10.0.1.0", 24, 2), route("10.0.1.7", 32, 3), route("10.0.9.200", 32, 4))
	for addr, want := range map[string]uint32{"10.0.9.1": 0, "10.0.1.1": 1} {
		if grp, ok := tb.group(ip(addr) >> 8); !ok || grp != want {
			t.Errorf("%s: group %d ok=%v, want %d", addr, grp, ok, want)
		}
	}
}

func TestHostRouteBeforeCoveringPrefix(t *testing.T) {
	tb := build(t, route("192.168.1.42", 32, 3), route("192.168.1.0", 24, 1))
	nh, _ := tb.LookupNoCharge(ip("192.168.1.42"))
	if nh.Port != 3 {
		t.Fatalf("host route lost: port %d", nh.Port)
	}
	nh, _ = tb.LookupNoCharge(ip("192.168.1.43"))
	if nh.Port != 1 {
		t.Fatalf("covering /24 broken: port %d", nh.Port)
	}
}

func TestNoMatch(t *testing.T) {
	tb := build(t, route("10.0.0.0", 8, 1))
	if _, ok := tb.LookupNoCharge(ip("11.0.0.1")); ok {
		t.Fatal("matched a route that does not cover the address")
	}
}

func TestBadPrefixLength(t *testing.T) {
	for _, n := range []int{33, -1} {
		if _, err := Build(newArena(), []Route{{Length: n}}); err == nil {
			t.Fatalf("accepted /%d", n)
		}
	}
}

func TestRoutesCounter(t *testing.T) {
	tb := build(t, route("10.0.0.0", 8, 1), route("10.1.0.0", 16, 2))
	if tb.Routes() != 2 {
		t.Fatalf("routes = %d", tb.Routes())
	}
}

func TestChargedLookupMatchesUncharged(t *testing.T) {
	_, core := machine.Default(2.0)
	tb := build(t, route("10.0.0.0", 8, 1), route("10.1.2.200", 26, 5))
	for _, a := range []string{"10.0.0.1", "10.1.2.201", "10.1.2.1"} {
		c1, ok1 := tb.Lookup(core, ip(a))
		c2, ok2 := tb.LookupNoCharge(ip(a))
		if c1 != c2 || ok1 != ok2 {
			t.Fatalf("charged/uncharged disagree on %s", a)
		}
	}
}

func TestChargedLookupCosts(t *testing.T) {
	_, core := machine.Default(2.0)
	tb := build(t, route("10.0.0.0", 8, 1))
	before := core.Snapshot()
	tb.Lookup(core, ip("10.0.0.1"))
	if d := core.Snapshot().Delta(before); d.Instructions == 0 {
		t.Fatal("lookup was free")
	}
}

func TestAgainstLinearScanProperty(t *testing.T) {
	// Reference model: linear scan over the route list picking the
	// longest matching prefix, the later of two equal routes winning.
	routes := []Route{
		route("0.0.0.0", 0, 0),
		route("10.0.0.0", 8, 1),
		route("10.128.0.0", 9, 2),
		route("10.1.0.0", 16, 3),
		route("10.1.2.0", 24, 4),
		route("10.1.2.128", 25, 5),
		route("10.1.2.129", 32, 6),
		route("172.16.0.0", 12, 7),
	}
	tb := build(t, routes...)
	ref := func(addr uint32) (int, bool) {
		best, bestLen, found := 0, -1, false
		for _, r := range routes {
			if addr&maskOf(r.Length) == r.Prefix&maskOf(r.Length) && r.Length >= bestLen {
				best, bestLen, found = r.NextHop.Port, r.Length, true
			}
		}
		return best, found
	}
	if err := quick.Check(func(addr uint32) bool {
		nh, ok := tb.LookupNoCharge(addr)
		wantPort, wantOK := ref(addr)
		if ok != wantOK {
			return false
		}
		return !ok || nh.Port == wantPort
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLookup compares the host cost of a charged lookup through
// Build's interval table and through the literal DIR-24-8 oracle, on
// nf.Router's routes plus one host route, over a spread of addresses.
func BenchmarkLookup(b *testing.B) {
	routes := []Route{route("10.1.0.0", 16, 0), route("10.0.0.0", 8, 0), route("0.0.0.0", 0, 0), route("10.1.2.3", 32, 1)}
	addrs := make([]uint32, 4096)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range addrs {
		addrs[i] = ip("10.1.0.0") | rng.Uint32()&0xffff
	}
	b.Run("interval", func(b *testing.B) {
		_, core := machine.Default(2.0)
		tb := build(b, routes...)
		for i := 0; i < b.N; i++ {
			tb.Lookup(core, addrs[i%len(addrs)])
		}
	})
	b.Run("dir248", func(b *testing.B) {
		_, core := machine.Default(2.0)
		ref := newDir248(newArena())
		for _, r := range routes {
			if err := ref.addRoute(r.Prefix, r.Length, r.NextHop); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < b.N; i++ {
			ref.lookup(core, addrs[i%len(addrs)])
		}
	})
}
