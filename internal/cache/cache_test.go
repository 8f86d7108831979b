package cache

import (
	"strings"
	"testing"

	"packetmill/internal/memsim"
)

func newTestSystem() (*System, *Hierarchy) {
	s := NewSystem(DefaultSystemConfig())
	return s, s.NewCore()
}

func TestColdMissThenHit(t *testing.T) {
	_, h := newTestSystem()
	c1 := h.AccessLine(0x10000, false)
	if c1.ServedBy != DRAM {
		t.Fatalf("first access served by %v, want DRAM", c1.ServedBy)
	}
	c2 := h.AccessLine(0x10000, false)
	if c2.ServedBy != L1 {
		t.Fatalf("second access served by %v, want L1", c2.ServedBy)
	}
	if c2.Cycles >= c1.NS+c1.Cycles {
		t.Fatal("L1 hit not cheaper than DRAM miss")
	}
}

func TestSameLineSharing(t *testing.T) {
	_, h := newTestSystem()
	h.AccessLine(0x10000, false)
	c := h.AccessLine(0x10020, false) // same 64-B line
	if c.ServedBy != L1 {
		t.Fatalf("same-line access served by %v, want L1", c.ServedBy)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	s := NewSystem(DefaultSystemConfig())
	h := s.NewCore()
	// Touch enough distinct lines to overflow the 32-KiB L1 (512 lines).
	for i := 0; i < 2048; i++ {
		h.AccessLine(memsim.Addr(i*memsim.CacheLineSize), false)
	}
	// The first line is long gone from L1 but must still be in L2.
	c := h.AccessLine(0, false)
	if c.ServedBy != L2 {
		t.Fatalf("evicted line served by %v, want L2", c.ServedBy)
	}
}

func TestLLCServesAfterL2Eviction(t *testing.T) {
	s := NewSystem(DefaultSystemConfig())
	h := s.NewCore()
	// Overflow the 1-MiB L2 (16384 lines) with a 4-MiB sweep.
	lines := 4 << 20 / memsim.CacheLineSize
	for i := 0; i < lines; i++ {
		h.AccessLine(memsim.Addr(i*memsim.CacheLineSize), false)
	}
	c := h.AccessLine(0, false)
	if c.ServedBy != LLC {
		t.Fatalf("line served by %v, want LLC", c.ServedBy)
	}
}

func TestDRAMAfterLLCOverflow(t *testing.T) {
	s := NewSystem(DefaultSystemConfig())
	h := s.NewCore()
	// Sweep 2× the 24-MiB LLC.
	lines := 48 << 20 / memsim.CacheLineSize
	for i := 0; i < lines; i++ {
		h.AccessLine(memsim.Addr(i*memsim.CacheLineSize), false)
	}
	c := h.AccessLine(0, false)
	if c.ServedBy != DRAM {
		t.Fatalf("line served by %v, want DRAM after LLC overflow", c.ServedBy)
	}
}

func TestWorkingSetResidency(t *testing.T) {
	// A small hot set (the X-Change scenario: 32 metadata buffers) must
	// hit L1 on every revisit.
	_, h := newTestSystem()
	addrs := make([]memsim.Addr, 32)
	for i := range addrs {
		addrs[i] = memsim.Addr(0x100000 + i*memsim.CacheLineSize)
	}
	for _, a := range addrs {
		h.AccessLine(a, true)
	}
	for round := 0; round < 10; round++ {
		for _, a := range addrs {
			if c := h.AccessLine(a, false); c.ServedBy != L1 {
				t.Fatalf("hot line %#x served by %v on round %d", a, c.ServedBy, round)
			}
		}
	}
}

func TestMultiLineAccessCost(t *testing.T) {
	_, h := newTestSystem()
	c := h.Access(0x40000, 256, false) // 4 lines, all cold
	if c.ServedBy != DRAM {
		t.Fatalf("served by %v", c.ServedBy)
	}
	single := h.Access(0x80000, 1, false)
	if c.NS < 3*single.NS {
		t.Fatalf("4-line access (%v ns) not ≈4× 1-line (%v ns)", c.NS, single.NS)
	}
}

func TestZeroSizeAccessFree(t *testing.T) {
	_, h := newTestSystem()
	c := h.Access(0x40000, 0, false)
	if c.Cycles != 0 || c.NS != 0 {
		t.Fatal("zero-size access charged")
	}
}

func TestDMAWriteLandsInLLC(t *testing.T) {
	s, h := newTestSystem()
	s.DMAWrite(0x200000, 1500)
	c := h.AccessLine(0x200000, false)
	if c.ServedBy != LLC {
		t.Fatalf("DMA'd line served by %v, want LLC (DDIO)", c.ServedBy)
	}
}

func TestDMAInvalidatesCoreCaches(t *testing.T) {
	s, h := newTestSystem()
	h.AccessLine(0x300000, false) // pull into L1
	s.DMAWrite(0x300000, 64)      // device overwrites it
	c := h.AccessLine(0x300000, false)
	if c.ServedBy != LLC {
		t.Fatalf("stale line served by %v, want LLC after DMA invalidation", c.ServedBy)
	}
}

func TestDDIOWindowLimitsOccupancy(t *testing.T) {
	// Warm a working set into the LLC, blast a huge DMA region over it,
	// and count how many lines survive. With a 2-way DDIO window most of
	// the set must survive; with the window as wide as the cache, the
	// DMA wipes nearly everything. This is exactly the DDIO-thrashing
	// effect the paper cites from [25].
	survivors := func(ddioWays int) int {
		cfg := DefaultSystemConfig()
		cfg.DDIOWays = ddioWays
		s := NewSystem(cfg)
		h := s.NewCore()
		const nLines = 4096
		for i := 0; i < nLines; i++ {
			h.AccessLine(memsim.Addr(i*memsim.CacheLineSize), false)
		}
		s.DMAWrite(0x8000000, 128<<20) // 128-MiB DMA blast
		// Probe through a fresh core so private caches don't mask LLC state.
		h2 := s.NewCore()
		n := 0
		for i := 0; i < nLines; i++ {
			if c := h2.AccessLine(memsim.Addr(i*memsim.CacheLineSize), false); c.ServedBy == LLC {
				n++
			}
		}
		return n
	}
	narrow := survivors(2)
	wide := survivors(12)
	if narrow <= wide {
		t.Fatalf("DDIO window not protecting LLC: %d survivors (2-way) vs %d (12-way)", narrow, wide)
	}
	if narrow < 2048 {
		t.Fatalf("2-way DDIO window let DMA evict too much: %d/4096 survivors", narrow)
	}
}

func TestDDIOHitMissCounters(t *testing.T) {
	s, _ := newTestSystem()
	s.DMAWrite(0x500000, 64)
	s.DMAWrite(0x500000, 64)
	if s.DDIOMisses != 1 || s.DDIOHits != 1 {
		t.Fatalf("DDIO counters = hits %d misses %d, want 1/1", s.DDIOHits, s.DDIOMisses)
	}
}

func TestLLCCountersMove(t *testing.T) {
	s, h := newTestSystem()
	before, beforeMiss, _, _ := s.LLCCounters()
	h.AccessLine(0x600000, false)
	loads, misses, _, _ := s.LLCCounters()
	if loads != before+1 || misses != beforeMiss+1 {
		t.Fatalf("LLC counters did not record cold miss: loads %d→%d misses %d→%d",
			before, loads, beforeMiss, misses)
	}
	h.AccessLine(0x600000, false) // L1 hit; LLC counters must not move
	loads2, _, _, _ := s.LLCCounters()
	if loads2 != loads {
		t.Fatal("L1 hit incremented LLC loads")
	}
}

func TestTLBMissCharged(t *testing.T) {
	_, h := newTestSystem()
	h.AccessLine(0x1000000, false)
	if h.TLBMisses != 1 {
		t.Fatalf("TLBMisses = %d, want 1", h.TLBMisses)
	}
	h.AccessLine(0x1000040, false) // same page
	if h.TLBMisses != 1 {
		t.Fatalf("second access on same page walked again: %d", h.TLBMisses)
	}
	h.AccessLine(0x1002000, false) // next page
	if h.TLBMisses != 2 {
		t.Fatalf("TLBMisses = %d, want 2", h.TLBMisses)
	}
}

func TestStoreCountsSeparately(t *testing.T) {
	_, h := newTestSystem()
	h.AccessLine(0x700000, true)
	l1Loads, _, _, _ := h.CoreCounters()
	if l1Loads != 0 {
		t.Fatalf("store counted as load: %d", l1Loads)
	}
}

func TestResetClearsEverything(t *testing.T) {
	s, h := newTestSystem()
	h.AccessLine(0x800000, false)
	s.DMAWrite(0x900000, 128)
	s.Reset()
	if l, m, _, _ := s.LLCCounters(); l != 0 || m != 0 {
		t.Fatal("LLC counters survived reset")
	}
	if s.DDIOHits != 0 || s.DDIOMisses != 0 {
		t.Fatal("DDIO counters survived reset")
	}
	if h.TLBMisses != 0 {
		t.Fatal("TLB counter survived reset")
	}
	if c := h.AccessLine(0x800000, false); c.ServedBy != DRAM {
		t.Fatalf("cache contents survived reset: served by %v", c.ServedBy)
	}
}

func TestPrivateCachesAreIsolatedAcrossCores(t *testing.T) {
	s := NewSystem(DefaultSystemConfig())
	h1 := s.NewCore()
	h2 := s.NewCore()
	h1.AccessLine(0xA00000, false)
	c := h2.AccessLine(0xA00000, false)
	if c.ServedBy == L1 || c.ServedBy == L2 {
		t.Fatalf("core 2 hit core 1's private cache: %v", c.ServedBy)
	}
	if c.ServedBy != LLC {
		t.Fatalf("shared LLC did not serve second core: %v", c.ServedBy)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	newSetAssoc(Config{Name: "bad", SizeB: 3 * 64, Ways: 1})
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || DRAM.String() != "DRAM" || LLC.String() != "LLC" || L2.String() != "L2" {
		t.Fatal("Level.String broken")
	}
	if Level(99).String() == "" {
		t.Fatal("unknown level string empty")
	}
}

func TestDeterministicReplayProperty(t *testing.T) {
	// Two hierarchies fed the same access sequence must serve every
	// access from the same level — the simulator has no hidden state.
	seq := make([]struct {
		addr  memsim.Addr
		write bool
	}, 5000)
	r := uint64(12345)
	next := func() uint64 { r = r*6364136223846793005 + 1442695040888963407; return r }
	for i := range seq {
		seq[i].addr = memsim.Addr(next() % (64 << 20))
		seq[i].write = next()%3 == 0
	}
	run := func() []Level {
		s := NewSystem(DefaultSystemConfig())
		h := s.NewCore()
		out := make([]Level, len(seq))
		for i, a := range seq {
			out[i] = h.AccessLine(a.addr, a.write).ServedBy
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestImmediateReaccessHitsL1Property(t *testing.T) {
	// Whatever happened before, touching a line then touching it again
	// must be an L1 hit (no pathological self-eviction).
	s := NewSystem(DefaultSystemConfig())
	h := s.NewCore()
	r := uint64(99)
	next := func() uint64 { r = r*6364136223846793005 + 1; return r }
	for i := 0; i < 5000; i++ {
		addr := memsim.Addr(next() % (256 << 20))
		h.AccessLine(addr, next()%2 == 0)
		if c := h.AccessLine(addr, false); c.ServedBy != L1 {
			t.Fatalf("immediate re-access of %#x served by %v", addr, c.ServedBy)
		}
	}
}

// refSetAssoc is the cache set model as it stood before its host
// storage was repacked (uint64 tags, full-set scans, no presence
// filter), kept verbatim apart from the names as the differential
// oracle for setAssoc.
//
// refSetAssoc is a set-associative LRU cache over 64-byte lines. Tags store
// the full line address so aliasing cannot occur. LRU is kept as an age
// counter per way (sets are small, so a linear scan is fine and fast).
type refSetAssoc struct {
	cfg  Config
	sets int
	ways int
	tags []uint64 // sets*ways, 0 means empty (line addr 0 is unused)
	age  []int64  // parallel to tags; larger = more recently used
	tick int64
	// insertPenalty implements RRIP-style thrash resistance: new lines
	// enter aged (near-LRU) and are only promoted to MRU on a hit, so a
	// once-through stream evicts itself instead of the working set.
	// Zero means plain LRU (L1/L2/TLB).
	insertPenalty int64
	// lastIdx memoizes the way of the most recent hit or insert. Packet
	// processing re-touches the same lines (header, annotations) many
	// times per packet, so checking it first turns the common repeat
	// lookup into one compare instead of a set scan. Tags hold full line
	// addresses, so a stale memo can never falsely match another line.
	lastIdx int
	// counters
	Loads       uint64
	LoadMisses  uint64
	Stores      uint64
	StoreMisses uint64
}

func newRefSetAssoc(cfg Config) *refSetAssoc {
	lines := int(cfg.SizeB / memsim.CacheLineSize)
	if cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		panic("cache: size must be a multiple of ways*64")
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("cache: number of sets must be a power of two")
	}
	return &refSetAssoc{
		cfg:  cfg,
		sets: sets,
		ways: cfg.Ways,
		tags: make([]uint64, sets*cfg.Ways),
		age:  make([]int64, sets*cfg.Ways),
	}
}

// lookup probes for line; on hit it refreshes LRU and returns true.
func (c *refSetAssoc) lookup(line uint64) bool {
	c.tick++
	if c.tags[c.lastIdx] == line {
		c.age[c.lastIdx] = c.tick
		return true
	}
	set := int(line) & (c.sets - 1)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.age[base+w] = c.tick
			c.lastIdx = base + w
			return true
		}
	}
	return false
}

// insert places line into its set, evicting the LRU way. waysLimit, if
// positive, restricts insertion to the *last* waysLimit ways of the set —
// this is how the DDIO window is modelled (I/O-allocated lines may occupy
// only a bounded slice of each set, so DMA bursts cannot wipe the whole
// cache). Returns the evicted line (0 if the victim way was empty).
func (c *refSetAssoc) insert(line uint64, waysLimit int) uint64 {
	set := int(line) & (c.sets - 1)
	base := set * c.ways
	lo := 0
	if waysLimit > 0 && waysLimit < c.ways {
		lo = c.ways - waysLimit
	}
	victim := base + lo
	victimAge := int64(1) << 62
	for w := lo; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			victim = base + w
			victimAge = 0
			break
		}
		if c.age[base+w] < victimAge {
			victimAge = c.age[base+w]
			victim = base + w
		}
	}
	evicted := c.tags[victim]
	c.tick++
	c.tags[victim] = line
	c.age[victim] = c.tick - c.insertPenalty
	c.lastIdx = victim
	return evicted
}

// invalidate removes line if present.
func (c *refSetAssoc) invalidate(line uint64) {
	set := int(line) & (c.sets - 1)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.tags[base+w] = 0
			c.age[base+w] = 0
			return
		}
	}
}

// reset clears contents and counters.
func (c *refSetAssoc) reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.age[i] = 0
	}
	c.tick = 0
	c.Loads, c.LoadMisses, c.Stores, c.StoreMisses = 0, 0, 0, 0
}

// diffCase is one cache geometry the differential tests drive through
// setAssoc and refSetAssoc side by side.
type diffCase struct {
	name      string
	cfg       Config
	filtered  bool  // the private-cache presence filter
	penalty   int64 // insertPenalty (the LLC's RRIP-style distant insertion)
	waysLimit int   // the DDIO window used by limited inserts
}

var diffCases = []diffCase{
	{name: "tiny-4way", cfg: Config{SizeB: 2 << 10, Ways: 4}, filtered: true},
	{name: "tiny-8way", cfg: Config{SizeB: 4 << 10, Ways: 8}, filtered: true, waysLimit: 3},
	{name: "one-set-16way", cfg: Config{SizeB: 1 << 10, Ways: 16}, filtered: true, waysLimit: 8},
	{name: "direct-mapped", cfg: Config{SizeB: 1 << 10, Ways: 1}, filtered: true},
	{name: "llc-like", cfg: Config{SizeB: 3 << 10, Ways: 12}, penalty: llcInsertPenalty, waysLimit: 8},
	{name: "llc-like-filtered", cfg: Config{SizeB: 3 << 10, Ways: 12}, filtered: true, penalty: llcInsertPenalty, waysLimit: 2},
	{name: "L1", cfg: DefaultSystemConfig().L1, filtered: true},
	{name: "L2", cfg: DefaultSystemConfig().L2, filtered: true},
	{name: "LLC", cfg: DefaultSystemConfig().LLCC, penalty: llcInsertPenalty, waysLimit: DefaultSystemConfig().DDIOWays},
}

func (dc diffCase) build() (*setAssoc, *refSetAssoc) {
	c := newSetAssoc(dc.cfg)
	if dc.filtered {
		c = newFilteredSetAssoc(dc.cfg)
	}
	ref := newRefSetAssoc(dc.cfg)
	c.insertPenalty, ref.insertPenalty = dc.penalty, dc.penalty
	return c, ref
}

// diffLine draws a line tag that stresses one geometry: mostly a pool
// about four times the cache's capacity, so sets fill, evict and re-hit;
// sometimes many lines of one set, which share every index bit and
// collide in the signature; sometimes tags at the top of the uint32
// range.
func diffLine(c *setAssoc, r uint64) uint32 {
	capLines := uint64(c.sets * c.ways)
	switch r % 8 {
	case 0:
		return uint32(r>>8%uint64(c.sets)) + uint32(r>>24%4096)*uint32(c.sets) + 1
	case 1:
		return maxLineTag - uint32(r>>8%(2*capLines))
	default:
		return uint32(r>>8%(4*capLines)) + 1
	}
}

// runDiff applies n operations drawn from next to both models and fails
// at the first divergence: lookup results, evicted lines, and (when
// every is positive, every that many operations and at the end) the
// full tag, age, tick and memo state. For a filtered cache it also
// checks that no held line's signature bit is clear.
func runDiff(t testing.TB, dc diffCase, n, every int, next func() uint64) {
	t.Helper()
	c, ref := dc.build()
	for i := 0; i < n; i++ {
		r := next()
		line := diffLine(c, r>>8)
		switch op := r % 32; {
		case op < 14:
			if got, want := c.lookup(line), ref.lookup(uint64(line)); got != want {
				t.Fatalf("%s op %d: lookup(%#x) = %v, oracle %v", dc.name, i, line, got, want)
			}
		case op < 26:
			// The hierarchy inserts only after a missed lookup; a few
			// raw inserts also cover a line held twice in one set.
			if op < 24 && c.lookup(line) != ref.lookup(uint64(line)) {
				t.Fatalf("%s op %d: lookup(%#x) diverged before insert", dc.name, i, line)
			}
			limit := 0
			if op%2 == 1 {
				limit = dc.waysLimit
			}
			if got, want := c.insert(line, limit), ref.insert(uint64(line), limit); uint64(got) != want {
				t.Fatalf("%s op %d: insert(%#x, %d) evicted %#x, oracle %#x", dc.name, i, line, limit, got, want)
			}
		case op < 31:
			if c.sig != nil {
				word, bit := c.slot(line)
				c.invalidate(line, word, bit)
			} else {
				c.remove(line)
			}
			ref.invalidate(uint64(line))
		default:
			if r>>40%64 == 0 {
				c.reset()
				ref.reset()
			}
		}
		if every > 0 && i%every == 0 {
			compareState(t, dc.name, i, c, ref)
		}
	}
	compareState(t, dc.name, n, c, ref)
}

func compareState(t testing.TB, name string, op int, c *setAssoc, ref *refSetAssoc) {
	t.Helper()
	if c.tick != ref.tick || c.lastIdx != ref.lastIdx {
		t.Fatalf("%s op %d: tick/memo %d/%d, oracle %d/%d", name, op, c.tick, c.lastIdx, ref.tick, ref.lastIdx)
	}
	for i, tag := range c.tags {
		if uint64(tag) != ref.tags[i] || c.age[i] != ref.age[i] {
			t.Fatalf("%s op %d: way %d holds %#x age %d, oracle %#x age %d",
				name, op, i, tag, c.age[i], ref.tags[i], ref.age[i])
		}
		if c.sig != nil && tag != 0 {
			if word, bit := c.slot(tag); c.sig[word]&bit == 0 {
				t.Fatalf("%s op %d: held line %#x has a clear signature bit", name, op, tag)
			}
		}
	}
}

func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
}

// TestSetAssocMatchesOracle drives seeded random streams of lookup,
// insert (with and without the DDIO window and the insert penalty),
// invalidate and reset through the packed, filtered setAssoc and the
// original, and requires identical results and state throughout.
func TestSetAssocMatchesOracle(t *testing.T) {
	for _, dc := range diffCases {
		t.Run(dc.name, func(t *testing.T) {
			n, every := 100000, 1
			if dc.cfg.SizeB > 4<<10 {
				n, every = 300000, 10000
			}
			for seed := uint64(1); seed <= 3; seed++ {
				runDiff(t, dc, n, every, splitmix(seed))
			}
		})
	}
}

// FuzzSetAssoc is TestSetAssocMatchesOracle over fuzzer-chosen streams:
// the first byte picks the geometry, each following eight bytes one
// operation.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("\x04\x0d\x00\x00\x00\x00\x00\x00\x01\x17\x00\x00\x00\x00\x00\x00\x01\x1a\x00\x00\x00\x00\x00\x00\x01"))
	f.Add([]byte("\x02\xffthe quick brown fox jumps over the lazy dog, twice over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		small := diffCases[:6]
		dc := small[int(data[0])%len(small)]
		data = data[1:]
		runDiff(t, dc, len(data)/8, 1, func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				v |= uint64(data[i]) << (8 * i)
			}
			data = data[8:]
			return v
		})
	})
}

// holds reports whether c holds the line containing addr, reading the
// tags directly so that no LRU state moves.
func holds(c *setAssoc, addr memsim.Addr) bool {
	line := uint32(lineOfAddr(addr))
	base := int(line&c.setMask) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == line {
			return true
		}
	}
	return false
}

func lineOfAddr(addr memsim.Addr) uint64 { return uint64(addr)/memsim.CacheLineSize + 1 }

// The private caches are not inclusive, so DMA invalidation must find a
// line wherever it is held. Each case below leaves x held somewhere
// else, then checks that after a DMA write every core that held x
// misses its private caches and is served by the LLC.

func TestDMAInvalidatesLineHeldOnlyInL1(t *testing.T) {
	s := NewSystem(DefaultSystemConfig())
	h0, h1 := s.NewCore(), s.NewCore()
	const x = memsim.Addr(0x340000)
	l2Stride := memsim.Addr(h1.l2.sets * memsim.CacheLineSize)
	h1.AccessLine(x, false)
	// Lines one L2 stride apart share x's L2 set (and its L1 set).
	// Re-touching x between them keeps it MRU in L1, while L2, which
	// sees only the misses, ages it out.
	for i := 1; i <= h1.l2.ways; i++ {
		h1.AccessLine(x+memsim.Addr(i)*l2Stride, false)
		h1.AccessLine(x, false)
	}
	if !holds(h1.l1, x) || holds(h1.l2, x) {
		t.Fatalf("setup: core 1 L1 holds x = %v, L2 holds x = %v; want true, false", holds(h1.l1, x), holds(h1.l2, x))
	}
	s.DMAWrite(x, 64)
	if holds(h1.l1, x) {
		t.Fatal("DMA write left x in core 1's L1")
	}
	if c := h1.AccessLine(x, false); c.ServedBy != LLC {
		t.Fatalf("core 1 re-read served by %v, want LLC", c.ServedBy)
	}
	if c := h0.AccessLine(x, false); c.ServedBy != LLC {
		t.Fatalf("core 0 read served by %v, want LLC", c.ServedBy)
	}
}

func TestDMAInvalidatesLineHeldOnlyInL2(t *testing.T) {
	s, h := newTestSystem()
	const x = memsim.Addr(0x350000)
	l1Stride := memsim.Addr(h.l1.sets * memsim.CacheLineSize)
	h.AccessLine(x, false)
	// Lines one L1 stride apart share x's L1 set but, short of a full
	// L2 stride, not its L2 set: they push x out of L1 only.
	for i := 1; i <= h.l1.ways; i++ {
		h.AccessLine(x+memsim.Addr(i)*l1Stride, false)
	}
	if holds(h.l1, x) || !holds(h.l2, x) {
		t.Fatalf("setup: L1 holds x = %v, L2 holds x = %v; want false, true", holds(h.l1, x), holds(h.l2, x))
	}
	s.DMAWrite(x, 64)
	if holds(h.l2, x) {
		t.Fatal("DMA write left x in L2")
	}
	if c := h.AccessLine(x, false); c.ServedBy != LLC {
		t.Fatalf("re-read served by %v, want LLC", c.ServedBy)
	}
}

func TestDMAInvalidatesLineHeldByBothCores(t *testing.T) {
	s := NewSystem(DefaultSystemConfig())
	cores := []*Hierarchy{s.NewCore(), s.NewCore()}
	const x = memsim.Addr(0x360040)
	for _, h := range cores {
		h.Access(x, 256, false)
	}
	s.DMAWrite(x, 256)
	for i, h := range cores {
		for a := x; a < x+256; a += memsim.CacheLineSize {
			if holds(h.l1, a) || holds(h.l2, a) {
				t.Fatalf("core %d still holds %#x after the DMA write", i, a)
			}
			if c := h.AccessLine(a, false); c.ServedBy != LLC {
				t.Fatalf("core %d re-read of %#x served by %v, want LLC", i, a, c.ServedBy)
			}
		}
	}
}

func TestDMAInvalidatesReinsertedLine(t *testing.T) {
	s, h := newTestSystem()
	const x = memsim.Addr(0x370000)
	h.AccessLine(x, true)
	for round := 0; round < 3; round++ {
		s.DMAWrite(x, 64)
		if c := h.AccessLine(x, false); c.ServedBy != LLC {
			t.Fatalf("round %d: read after DMA served by %v, want LLC", round, c.ServedBy)
		}
		if c := h.AccessLine(x, false); c.ServedBy != L1 {
			t.Fatalf("round %d: re-inserted line served by %v, want L1", round, c.ServedBy)
		}
	}
}

// TestTagWidthGuard checks the once-per-range guard: a range whose last
// line still fits a uint32 tag is simulated, one a line further panics
// with the named message, whichever entry point it goes through.
func TestTagWidthGuard(t *testing.T) {
	const top = memsim.Addr(maxLineTag-1) * memsim.CacheLineSize // first byte of the last taggable line
	s, h := newTestSystem()
	entries := map[string]func(addr memsim.Addr, size uint64){
		"Access":     func(a memsim.Addr, n uint64) { h.Access(a, n, false) },
		"AccessLine": func(a memsim.Addr, _ uint64) { h.AccessLine(a, true) },
		"DMAWrite":   s.DMAWrite,
		"DMARead":    s.DMARead,
		"Prewarm":    s.Prewarm,
	}
	for name, fn := range entries {
		fn(top-128, 192) // ends on the last taggable line
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "cache: line tag overflow") {
					t.Errorf("%s past the tag space: recovered %q, want the line tag overflow panic", name, msg)
				}
			}()
			if name == "AccessLine" {
				fn(top+memsim.CacheLineSize, 1)
			} else {
				fn(top-128, 193)
			}
		}()
	}
}

// TestHugePageTLBTags checks the uint32 TLB tags: hugepage tags carry
// bit 31 and small-page tags never reach it, and each hugepage lands in
// the TLB set it did under the original uint64 tags (flag at bit 40).
func TestHugePageTLBTags(t *testing.T) {
	cfg := DefaultSystemConfig().TLB
	sets := uint64(cfg.Entries / cfg.Ways)
	for a := memsim.HugeBase; a < memsim.MMIOBase; a += memsim.HugePageSize {
		tag := uint64(pageOf(a)) + 1
		old := (uint64(a)/memsim.HugePageSize | 1<<40) + 1
		if tag&(1<<31) == 0 {
			t.Fatalf("hugepage %#x tag %#x lacks the hugepage bit", a, tag)
		}
		if tag%sets != old%sets {
			t.Fatalf("hugepage %#x moved from TLB set %d to %d", a, old%sets, tag%sets)
		}
	}
	for _, a := range []memsim.Addr{0, memsim.StaticBase, memsim.HeapBase, memsim.HugeBase - 1, memsim.MMIOBase, 1<<38 - 1} {
		if pg := pageOf(a) + 1; pg&(1<<31) != 0 {
			t.Fatalf("small page of %#x has tag %#x, inside the hugepage tag range", a, pg)
		}
	}
}
