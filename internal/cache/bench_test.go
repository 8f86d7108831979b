package cache

import (
	"fmt"
	"testing"

	"packetmill/internal/memsim"
)

// BenchmarkDMAWrite measures the host cost of one NIC frame write: the
// DDIO probe and fill of every line in the LLC plus the invalidation of
// those lines in every core's L1 and L2. Each core first warms a
// 512-KiB working set and the header lines of every buffer, so the
// private caches are full when the timed writes begin.
func BenchmarkDMAWrite(b *testing.B) {
	const (
		nBufs   = 4096
		bufSize = 2048
	)
	for _, cores := range []int{1, 2} {
		for _, frame := range []uint64{64, 1500} {
			b.Run(fmt.Sprintf("cores=%d/frame=%d", cores, frame), func(b *testing.B) {
				s := NewSystem(DefaultSystemConfig())
				for range cores {
					h := s.NewCore()
					h.Access(memsim.StaticBase, 512<<10, false)
					for i := range nBufs {
						h.Access(memsim.HugeBase+memsim.Addr(i*bufSize), 128, false)
					}
				}
				b.SetBytes(int64(frame))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.DMAWrite(memsim.HugeBase+memsim.Addr(i%nBufs*bufSize), frame)
				}
			})
		}
	}
}

// benchCost keeps BenchmarkAccessLine's result live.
var benchCost Cost

// BenchmarkAccessLine measures one demand load through the hierarchy.
// hit cycles over 256 lines, which stay in L1; miss strides over 64 MiB,
// so every load misses L1, L2 and the LLC and fills all three.
func BenchmarkAccessLine(b *testing.B) {
	for _, tc := range []struct {
		name  string
		lines int
	}{{"hit", 256}, {"miss", 64 << 20 / memsim.CacheLineSize}} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewSystem(DefaultSystemConfig())
			h := s.NewCore()
			var c Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c = h.AccessLine(memsim.HeapBase+memsim.Addr(i%tc.lines*memsim.CacheLineSize), false)
			}
			benchCost = c
		})
	}
}
