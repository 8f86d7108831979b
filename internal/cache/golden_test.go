package cache

import (
	"hash/fnv"
	"math"
	"testing"

	"packetmill/internal/memsim"
)

// goldenSystemHash is systemTraceHash's value recorded on the cache
// model before its host storage was repacked (uint64 tags, full-set
// scans). Host-side rework must leave it alone; a deliberate model
// change re-records it and says so.
const goldenSystemHash = 0x99ac31f9ab0ee757

// systemTraceHash replays a seeded two-core stream of every System and
// Hierarchy entry point — packet-buffer DMA that lands on lines the
// cores hold, demand loads and stores over static, heap and hugepage
// data, TX reads, prewarms, far addresses near the top of the simulated
// space, and one mid-stream Reset — and folds every returned Cost and
// every counter into one FNV-64 hash.
func systemTraceHash() uint64 {
	s := NewSystem(DefaultSystemConfig())
	cores := []*Hierarchy{s.NewCore(), s.NewCore()}
	hsh := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		hsh.Write(buf[:])
	}
	putCost := func(c Cost) {
		put(uint64(c.ServedBy))
		put(math.Float64bits(c.Cycles))
		put(math.Float64bits(c.NS))
	}
	counters := func() {
		l, lm, st, sm := s.LLCCounters()
		for _, v := range []uint64{l, lm, st, sm, s.DDIOHits, s.DDIOMisses, s.DMAReads, s.DMAReadMisses} {
			put(v)
		}
		for _, h := range cores {
			for _, c := range []*setAssoc{h.l1, h.l2, h.tlb} {
				put(c.Loads)
				put(c.LoadMisses)
				put(c.Stores)
				put(c.StoreMisses)
			}
			for _, v := range []uint64{h.TLBMisses, h.LLCLoads, h.LLCLoadMisses, h.LLCStores, h.LLCStoreMisses} {
				put(v)
			}
		}
	}

	r := uint64(0x5eed)
	next := func() uint64 {
		r += 0x9e3779b97f4a7c15
		z := r
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	const (
		nBufs   = 6144
		bufSize = 2048
	)
	bufAddr := func() memsim.Addr { return memsim.HugeBase + memsim.Addr(next()%nBufs*bufSize) }
	dataAddr := func() memsim.Addr {
		switch next() % 8 {
		case 0, 1, 2:
			return memsim.StaticBase + memsim.Addr(next()%(96<<10))
		case 3, 4:
			return memsim.HeapBase + memsim.Addr(next()%(48<<20))
		case 5:
			// Near the top of the 2^38-byte simulated space.
			return memsim.Addr(1<<38 - 1<<20 + next()%(1<<20-8<<10))
		default:
			return bufAddr() + memsim.Addr(next()%bufSize)
		}
	}

	for i := 0; i < 300000; i++ {
		if i == 150000 {
			s.Reset()
			counters()
		}
		h := cores[next()%2]
		switch op := next() % 16; {
		case op < 3:
			size := 64 + next()%1500
			s.DMAWrite(bufAddr(), size)
		case op < 5:
			s.DMARead(bufAddr(), 64+next()%1500)
		case op < 6:
			s.Prewarm(dataAddr(), next()%4096)
		case op < 10:
			putCost(h.AccessLine(dataAddr(), next()%3 == 0))
		default:
			putCost(h.Access(dataAddr(), next()%256, next()%4 == 0))
		}
		if i%4096 == 0 {
			counters()
		}
	}
	counters()
	return hsh.Sum64()
}

// TestGoldenSystemTrace is the guard that host-side rework of the cache
// model leaves every modeled output untouched.
func TestGoldenSystemTrace(t *testing.T) {
	if got := systemTraceHash(); got != goldenSystemHash {
		t.Fatalf("system trace hash = %#x, want %#x: the cache model's outputs changed", got, uint64(goldenSystemHash))
	}
}
