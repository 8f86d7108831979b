package elements

import (
	"runtime"
	"testing"

	"packetmill/internal/click"
	"packetmill/internal/lpm"
	"packetmill/internal/memsim"
	"packetmill/internal/nf"
)

// TestRouterRouteTableHeapBound keeps the router's LPM host state sized by
// its route set: building nf.Router's three routes must stay far below a
// single 2^24-entry array.
func TestRouterRouteTableHeapBound(t *testing.T) {
	g, err := click.Parse(nf.Router(32))
	if err != nil {
		t.Fatal(err)
	}
	decl := g.Element("rt")
	if decl == nil || decl.Class != "LookupIPRoute" || len(decl.Args) != 3 {
		t.Fatalf("nf.Router route table: %+v", decl)
	}
	routes := make([]lpm.Route, len(decl.Args))
	for i, a := range decl.Args {
		if routes[i], err = parseRouteArg(a); err != nil {
			t.Fatal(err)
		}
	}
	arena := memsim.NewArena("lpm", memsim.HeapBase, 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := lpm.Build(arena, routes)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("lpm.Build allocated %d bytes for %d routes, want < 64 KiB", n, tb.Routes())
	}
}
