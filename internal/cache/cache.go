// Package cache simulates the DUT's cache hierarchy: per-core L1d and L2,
// a shared last-level cache (LLC) with a DDIO window for NIC DMA, and a
// small TLB. It is the substrate under every result in the paper: the three
// metadata-management models and all four code optimizations differ mostly
// in *which cache lines* a packet's processing touches, so we account for
// every simulated memory access at line granularity.
//
// Latency model (matching the paper's testbed description):
//   - L1 and L2 hit latencies are core-cycle denominated — they shrink in
//     wall-clock terms as the core frequency rises.
//   - LLC and DRAM latencies are nanosecond denominated — the uncore runs
//     at a fixed frequency (the paper pins it at 2.4 GHz), so these costs
//     do not scale with the core clock. This is what bends the
//     throughput-vs-frequency curves exactly the way Figure 4 shows.
package cache

import (
	"fmt"
	"math/bits"

	"packetmill/internal/memsim"
)

// Level identifies a cache level in results and counters.
type Level int

// Cache levels, ordered from closest to the core outwards. DRAM is the
// "miss everywhere" level.
const (
	L1 Level = iota
	L2
	LLC
	DRAM
	numLevels
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case DRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config sizes one set-associative cache.
type Config struct {
	Name   string
	SizeB  uint64 // total capacity in bytes
	Ways   int    // associativity
	HitCyc float64
	HitNS  float64
}

// setAssoc is a set-associative LRU cache over 64-byte lines. Tags store
// the full line address (+1, so 0 means empty) and aliasing cannot
// occur. Simulated line addresses stay below 2^32 (System checks each
// range), so a tag is a uint32 and a 16-way set's tags fill one 64-B
// host line. LRU is kept as an age counter per way (sets are small, so a
// linear scan is fine and fast).
//
// The private caches (L1, L2) also carry a presence filter, sig, so
// that DMA invalidation, which almost never finds the line, can skip
// the scan. Each set has a signature of at least 32 bits per way
// (sigWords uint64 words); a line maps to one bit of it. insert
// sets the new line's bit; eviction and invalidation leave the old bit
// behind. A probe whose bit is clear returns "absent" without reading a
// tag, and a scan that finds nothing rebuilds the signature from the
// set's tags, which drops the stale bits. Bits are cleared only by that
// rebuild, so a held line's bit is never clear: the filter has false
// positives, never false negatives. A freshly rebuilt signature has at
// most one bit in 32 set, so about 1 probe in 32 of an absent line
// scans. Each false positive costs a scan and a rebuild, which is why
// the signature is this wide: at 16 bits per way the router workload
// ran 5-8% slower in host time.
type setAssoc struct {
	cfg      Config
	sets     int
	ways     int
	setMask  uint32
	setBits  uint32
	tags     []uint32 // sets*ways, 0 means empty (line addr 0 is unused)
	age      []int64  // parallel to tags; larger = more recently used
	sig      []uint64 // sets*sigWords: a superset of the held tags' bits; nil if unfiltered
	sigWords int
	tick     int64
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

func newSetAssoc(cfg Config) *setAssoc {
	lines := int(cfg.SizeB / memsim.CacheLineSize)
	if cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		panic("cache: size must be a multiple of ways*64")
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("cache: number of sets must be a power of two")
	}
	return &setAssoc{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		setMask: uint32(sets - 1),
		setBits: uint32(bits.TrailingZeros(uint(sets))),
		tags:    make([]uint32, sets*cfg.Ways),
		age:     make([]int64, sets*cfg.Ways),
	}
}

// newFilteredSetAssoc is newSetAssoc with the presence filter, for the
// caches DMA invalidates. A set's signature gets one 64-bit word per
// two ways, rounded up to a power of two.
func newFilteredSetAssoc(cfg Config) *setAssoc {
	c := newSetAssoc(cfg)
	c.sigWords = (c.ways + 1) / 2
	if c.sigWords&(c.sigWords-1) != 0 {
		c.sigWords = 1 << bits.Len(uint(c.sigWords))
	}
	c.sig = make([]uint64, c.sets*c.sigWords)
	return c
}

// slot returns the index in sig of line's signature word and its bit
// there. The bit is picked by a multiplicative hash of the tag bits
// above the set index, which all lines of one set share.
func (c *setAssoc) slot(line uint32) (word int, bit uint64) {
	h := int((line >> c.setBits) * 0x9e3779b1 >> 20) // 12 bits
	word = int(line&c.setMask)*c.sigWords + h>>6&(c.sigWords-1)
	return word, 1 << (h & 63)
}

// lookup probes for line; on hit it refreshes LRU and returns true.
func (c *setAssoc) lookup(line uint32) bool {
	c.tick++
	if c.tags[c.lastIdx] == line {
		c.age[c.lastIdx] = c.tick
		return true
	}
	base := int(line&c.setMask) * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == line {
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
func (c *setAssoc) insert(line uint32, waysLimit int) uint32 {
	set := int(line & c.setMask)
	lo := set * c.ways
	if waysLimit > 0 && waysLimit < c.ways {
		lo += c.ways - waysLimit
	}
	tags := c.tags[lo : (set+1)*c.ways]
	age := c.age[lo : lo+len(tags)]
	victim := 0
	victimAge := int64(1) << 62
	for w, t := range tags {
		if t == 0 {
			victim = w
			break
		}
		if a := age[w]; a < victimAge {
			victimAge, victim = a, w
		}
	}
	evicted := tags[victim]
	c.tick++
	tags[victim] = line
	age[victim] = c.tick - c.insertPenalty
	c.lastIdx = lo + victim
	if c.sig != nil {
		word, bit := c.slot(line)
		c.sig[word] |= bit
	}
	return evicted
}

// invalidate removes line if present from a filtered cache. word and
// bit are line's filter slot (see slot), which a caller probing many
// caches of one geometry computes once.
func (c *setAssoc) invalidate(line uint32, word int, bit uint64) {
	if c.sig[word]&bit != 0 {
		c.remove(line)
	}
}

// remove empties the first way of line's set that holds line. If none
// does and the cache is filtered, it rebuilds the set's signature: the
// probe that led here was a false positive, and the rebuild drops the
// stale bits behind it.
func (c *setAssoc) remove(line uint32) {
	set := int(line & c.setMask)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	for w, t := range tags {
		if t == line {
			tags[w] = 0
			c.age[base+w] = 0
			return
		}
	}
	if c.sig == nil {
		return
	}
	sig := c.sig[set*c.sigWords : (set+1)*c.sigWords]
	clear(sig)
	for _, t := range tags {
		if t != 0 {
			word, bit := c.slot(t)
			c.sig[word] |= bit
		}
	}
}

// reset clears contents and counters.
func (c *setAssoc) reset() {
	clear(c.tags)
	clear(c.age)
	clear(c.sig)
	c.tick = 0
	c.Loads, c.LoadMisses, c.Stores, c.StoreMisses = 0, 0, 0, 0
}

// TLBConfig sizes the TLB model.
type TLBConfig struct {
	Entries int
	Ways    int
	WalkNS  float64 // page-walk penalty
}

// Hierarchy is one core's view of the memory system: private L1/L2, a
// pointer to the shared LLC, and a private TLB. Create one per simulated
// core with System.NewCore.
type Hierarchy struct {
	l1, l2 *setAssoc
	llc    *setAssoc // shared
	tlb    *setAssoc // reuse set-assoc machinery at page granularity
	sys    *System

	// TLBMisses counts page walks charged to this core.
	TLBMisses uint64

	// Per-core LLC demand counters: this core's accesses that reached
	// the shared LLC (L2 misses), and how many missed there too. The
	// shared llc.Loads/… counters aggregate every core; these scope the
	// same events to the hierarchy that caused them, which is what lets
	// a run attribute LLC traffic per core and per element the way
	// `perf stat --per-core` does.
	LLCLoads       uint64
	LLCLoadMisses  uint64
	LLCStores      uint64
	LLCStoreMisses uint64
}

// System owns the shared LLC and global configuration.
type System struct {
	cfg   SystemConfig
	llc   *setAssoc
	cores []*Hierarchy
	// DDIOHits / DDIOMisses count DMA writes that landed in (or missed)
	// the DDIO window of the LLC; DMAReads / DMAReadMisses count device
	// reads of TX buffers. Device traffic never appears in the LLC's
	// core-demand counters.
	DDIOHits      uint64
	DDIOMisses    uint64
	DMAReads      uint64
	DMAReadMisses uint64
}

// SystemConfig describes the whole memory system. DefaultSystemConfig
// matches the paper's Xeon Gold 6140 DUT closely enough for shape fidelity.
//
// Loads stall the pipeline for the full service latency; stores retire
// through the store buffer and only pay a small per-level drain cost —
// this asymmetry is what makes Overlaying's extra cold-line *writes*
// cheaper than Copying's extra *work*, matching the measured ordering.
type SystemConfig struct {
	L1     Config
	L2     Config
	LLCC   Config
	TLB    TLBConfig
	DRAMNS float64
	// Store drain costs (cycles) by serving level.
	StoreCyc [numLevels]float64
	// TLBStoreWalkCyc is the (mostly hidden) page-walk cost on stores.
	TLBStoreWalkCyc float64
	// DDIOWays restricts NIC DMA writes to the last N ways of each LLC
	// set (the paper sets the IIO LLC WAYS register to 8 set bits).
	DDIOWays int
}

// DefaultSystemConfig returns the baseline memory system: 32-KiB 8-way L1d,
// 1-MiB 16-way L2, 24.75-MiB 12-way shared LLC (Skylake-SP class), 8 DDIO
// ways, 1536-entry TLB.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		L1:              Config{Name: "L1d", SizeB: 32 << 10, Ways: 8, HitCyc: 1},
		L2:              Config{Name: "L2", SizeB: 1 << 20, Ways: 16, HitCyc: 12},
		LLCC:            Config{Name: "LLC", SizeB: 24 << 20, Ways: 12, HitNS: 16},
		TLB:             TLBConfig{Entries: 1536, Ways: 12, WalkNS: 25},
		DRAMNS:          80,
		StoreCyc:        [numLevels]float64{1, 3, 5, 8},
		TLBStoreWalkCyc: 10,
		DDIOWays:        8,
	}
}

// llcInsertPenalty ages fresh LLC fills so streaming data cannot flush
// re-referenced working sets — the first-order effect of the adaptive
// insertion policies (RRIP family) shipping in the modelled Xeons.
const llcInsertPenalty = 1 << 16

// NewSystem builds the shared memory system.
func NewSystem(cfg SystemConfig) *System {
	llc := newSetAssoc(cfg.LLCC)
	llc.insertPenalty = llcInsertPenalty
	return &System{cfg: cfg, llc: llc}
}

// NewCore attaches a new core (private L1/L2/TLB) to the system.
func (s *System) NewCore() *Hierarchy {
	h := &Hierarchy{
		l1:  newFilteredSetAssoc(s.cfg.L1),
		l2:  newFilteredSetAssoc(s.cfg.L2),
		llc: s.llc,
		sys: s,
	}
	// TLB: entries at page granularity; reuse setAssoc with "line" =
	// page number.
	tcfg := Config{Name: "TLB", SizeB: uint64(s.cfg.TLB.Entries) * memsim.CacheLineSize, Ways: s.cfg.TLB.Ways}
	h.tlb = newSetAssoc(tcfg)
	s.cores = append(s.cores, h)
	return h
}

// Reset clears all caches and counters in the system.
func (s *System) Reset() {
	s.llc.reset()
	s.DDIOHits, s.DDIOMisses = 0, 0
	s.DMAReads, s.DMAReadMisses = 0, 0
	for _, c := range s.cores {
		c.l1.reset()
		c.l2.reset()
		c.tlb.reset()
		c.TLBMisses = 0
		c.LLCLoads, c.LLCLoadMisses = 0, 0
		c.LLCStores, c.LLCStoreMisses = 0, 0
	}
}

// LLCCounters exposes the shared LLC's load/miss counters
// (loads, loadMisses, stores, storeMisses).
func (s *System) LLCCounters() (uint64, uint64, uint64, uint64) {
	return s.llc.Loads, s.llc.LoadMisses, s.llc.Stores, s.llc.StoreMisses
}

// Cost is the outcome of one access: the level that served it and its
// latency split into a core-cycle part and a fixed-nanosecond part.
type Cost struct {
	ServedBy Level
	Cycles   float64
	NS       float64
}

// maxLineTag bounds the line tags the uint32 tag arrays hold: simulated
// addresses stay below 2^38 bytes, so line number + 1 fits in 32 bits.
const maxLineTag = 1<<32 - 1

// lineSpan returns the numbers of the first and last cache lines of the
// non-empty range [addr, addr+size). It is the one tag-width check per
// range: every line in between is tagged as line number + 1 without
// checking again.
func lineSpan(addr memsim.Addr, size uint64) (first, last uint64) {
	last = (uint64(addr) + size - 1) / memsim.CacheLineSize
	if last >= maxLineTag {
		tagOverflow(addr, size)
	}
	return uint64(addr) / memsim.CacheLineSize, last
}

// tagOverflow is lineSpan's panic, kept out of line so lineSpan inlines.
//
//go:noinline
func tagOverflow(addr memsim.Addr, size uint64) {
	panic(fmt.Sprintf("cache: line tag overflow: range [%#x, +%d) reaches past the 2^38-byte simulated address space", uint64(addr), size))
}

// pageOf returns the TLB tag for addr. The hugepage region (DPDK pools,
// rings, packet buffers) maps with 2-MiB pages, so a multi-megabyte
// buffer pool costs a handful of TLB entries — one of hugepages' main
// points. Everything else uses 4-KiB pages. The two spaces get disjoint
// tag ranges so a hugepage never aliases a small page: small page
// numbers stay below 2^26, and hugepage tags carry bit 31, which leaves
// the TLB set index (the low bits) unchanged.
func pageOf(addr memsim.Addr) uint32 {
	if addr >= memsim.HugeBase && addr < memsim.MMIOBase {
		return uint32(addr/memsim.HugePageSize) | 1<<31
	}
	return uint32(addr / memsim.PageSize)
}

// AccessLine performs a load or store of a single cache line containing
// addr and returns its cost. Core code paths call this via machine.Perf
// helpers rather than directly.
func (h *Hierarchy) AccessLine(addr memsim.Addr, write bool) Cost {
	ln, _ := lineSpan(addr, 1)
	return h.access(addr, uint32(ln+1), write)
}

// access is AccessLine for the line holding addr, whose tag (line
// number + 1, so 0 stays "empty") the caller has checked.
func (h *Hierarchy) access(addr memsim.Addr, line uint32, write bool) Cost {
	var c Cost
	// TLB first. Loads stall on the page walk; stores mostly hide it
	// behind the store buffer.
	pg := pageOf(addr)
	if !h.tlb.lookup(pg + 1) { // +1 keeps tag 0 meaning "empty"
		h.tlb.insert(pg+1, 0)
		h.TLBMisses++
		if write {
			c.Cycles += h.sys.cfg.TLBStoreWalkCyc
		} else {
			c.NS += h.sys.cfg.TLB.WalkNS
		}
	}

	serve := func(lvl Level) Cost {
		c.ServedBy = lvl
		if write {
			c.Cycles += h.sys.cfg.StoreCyc[lvl]
			return c
		}
		switch lvl {
		case L1:
			c.Cycles += h.sys.cfg.L1.HitCyc
		case L2:
			c.Cycles += h.sys.cfg.L2.HitCyc
		case LLC:
			c.NS += h.sys.cfg.LLCC.HitNS
		case DRAM:
			c.NS += h.sys.cfg.DRAMNS
		}
		return c
	}

	if write {
		h.l1.Stores++
	} else {
		h.l1.Loads++
	}
	if h.l1.lookup(line) {
		return serve(L1)
	}
	if write {
		h.l1.StoreMisses++
		h.l2.Stores++
	} else {
		h.l1.LoadMisses++
		h.l2.Loads++
	}
	if h.l2.lookup(line) {
		h.l1.insert(line, 0)
		return serve(L2)
	}
	if write {
		h.l2.StoreMisses++
		h.llc.Stores++
		h.LLCStores++
	} else {
		h.l2.LoadMisses++
		h.llc.Loads++
		h.LLCLoads++
	}
	if h.llc.lookup(line) {
		h.l2.insert(line, 0)
		h.l1.insert(line, 0)
		return serve(LLC)
	}
	if write {
		h.llc.StoreMisses++
		h.LLCStoreMisses++
	} else {
		h.llc.LoadMisses++
		h.LLCLoadMisses++
	}
	h.llc.insert(line, 0)
	h.l2.insert(line, 0)
	h.l1.insert(line, 0)
	return serve(DRAM)
}

// Access touches [addr, addr+size) and returns the summed cost over the
// cache lines the range spans.
func (h *Hierarchy) Access(addr memsim.Addr, size uint64, write bool) Cost {
	if size == 0 {
		return Cost{}
	}
	var total Cost
	first, last := lineSpan(addr, size)
	for ln := first; ln <= last; ln++ {
		c := h.access(memsim.Addr(ln*memsim.CacheLineSize), uint32(ln+1), write)
		total.Cycles += c.Cycles
		total.NS += c.NS
		if c.ServedBy > total.ServedBy {
			total.ServedBy = c.ServedBy
		}
	}
	return total
}

// DMAWrite models the NIC writing [addr, addr+size) over PCIe with DDIO:
// lines are allocated directly into the LLC, restricted to the DDIO ways,
// and invalidated from every core's L1/L2 (the device stole ownership).
// The cost of DMA is borne by the NIC pipeline, not the core, so no latency
// is returned; what matters to the core is the later read hitting LLC.
func (s *System) DMAWrite(addr memsim.Addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := lineSpan(addr, size)
	for ln := first; ln <= last; ln++ {
		line := uint32(ln + 1)
		if s.llc.lookup(line) {
			s.DDIOHits++
		} else {
			s.DDIOMisses++
			s.llc.insert(line, s.cfg.DDIOWays)
		}
		if len(s.cores) == 0 {
			continue
		}
		// Every core's L1 (and every core's L2) has the same geometry,
		// so the line's filter slot is computed once per level, and
		// only a cache whose filter bit is set is scanned.
		word1, bit1 := s.cores[0].l1.slot(line)
		word2, bit2 := s.cores[0].l2.slot(line)
		for _, c := range s.cores {
			c.l1.invalidate(line, word1, bit1)
			c.l2.invalidate(line, word2, bit2)
		}
	}
}

// DMARead models the NIC reading a TX buffer. Reads can be served from
// LLC (fast path) or DRAM; either way the core does not stall. Device
// reads are tracked in their own counters — perf's core LLC-loads events
// do not count device traffic, and neither do ours.
func (s *System) DMARead(addr memsim.Addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := lineSpan(addr, size)
	for ln := first; ln <= last; ln++ {
		line := uint32(ln + 1)
		s.DMAReads++
		if !s.llc.lookup(line) {
			s.DMAReadMisses++
			s.llc.insert(line, s.cfg.DDIOWays)
		}
	}
}

// Prewarm installs [addr, addr+size) into the LLC with normal residency
// and no counter movement — initialization-phase state for long-lived
// structures (a WorkPackage array, a warmed table) that a steady-state
// measurement would find resident. It models the paper's minutes-long
// runs without simulating minutes of packets.
func (s *System) Prewarm(addr memsim.Addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := lineSpan(addr, size)
	for ln := first; ln <= last; ln++ {
		line := uint32(ln + 1)
		if !s.llc.lookup(line) { // lookup promotes when already present
			s.llc.insert(line, 0)
			s.llc.lookup(line) // promote past the distant-insertion age
		}
	}
}

// CoreCounters returns this core's private-cache counters for tests.
func (h *Hierarchy) CoreCounters() (l1Loads, l1Misses, l2Loads, l2Misses uint64) {
	return h.l1.Loads, h.l1.LoadMisses, h.l2.Loads, h.l2.LoadMisses
}
