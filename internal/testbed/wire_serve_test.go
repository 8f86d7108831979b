package testbed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/stats"
	"packetmill/internal/wire"
)

// TestWireServeExits drives each way a ServeWire session ends, at one
// core (which serves on the calling goroutine) and at two: the packet
// budget and the idle exit return nil, a canceled context returns
// context.Canceled, and the buffer audit balances after each.
func TestWireServeExits(t *testing.T) {
	const budget, nFrames = 64, 200
	for _, cores := range []int{1, 2} {
		for _, tc := range []struct {
			name     string
			idleExit time.Duration
			budget   uint64
			cancelIn time.Duration // 0: never cancel
			want     error
		}{
			{name: "budget", budget: budget},
			{name: "idle", idleExit: 50 * time.Millisecond},
			{name: "cancel", cancelIn: 50 * time.Millisecond, want: context.Canceled},
		} {
			t.Run(fmt.Sprintf("cores=%d/%s", cores, tc.name), func(t *testing.T) {
				d, engs, gens := buildWireMirrorRig(t, cores, 512, Options{Model: click.XChange, Seed: 7})
				engines := make([]Engine, len(engs))
				for i, e := range engs {
					engines[i] = e
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if tc.cancelIn > 0 {
					time.AfterFunc(tc.cancelIn, cancel)
				}
				var wg sync.WaitGroup
				if tc.budget > 0 {
					frames := campusFrames(cores * nFrames)
					for c, gen := range gens {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if err := sendBursts(gen, frames[c*nFrames:(c+1)*nFrames], 8); err != nil {
								t.Errorf("core %d generator: %v", c, err)
							}
						}()
					}
				}
				st, err := d.ServeWire(ctx, engines, tc.idleExit, tc.budget)
				wg.Wait()
				if !errors.Is(err, tc.want) {
					t.Fatalf("ServeWire returned %v, want %v", err, tc.want)
				}
				if st.Steps == 0 {
					t.Error("no scheduling rounds ran")
				}
				if st.Packets < tc.budget {
					t.Errorf("budget exit after %d packets, budget %d", st.Packets, tc.budget)
				}
				// After a budget exit the generator's last frames may
				// still be landing in the DUT's rings; the audit reads a
				// settled datapath.
				for c := range gens {
					dev := d.PortsFor[c][0].Dev
					deadline := time.Now().Add(10 * time.Second)
					for tc.budget > 0 && offeredTo(dev) < nFrames {
						if time.Now().After(deadline) {
							t.Fatalf("core %d: %d of %d frames reached the DUT", c, offeredTo(dev), nFrames)
						}
						time.Sleep(time.Millisecond)
					}
				}
				if err := d.Audit(); err != nil {
					t.Fatalf("audit: %v", err)
				}
			})
		}
	}
}

// offeredTo counts the frames that reached a device: delivered or
// dropped on arrival.
func offeredTo(dev nic.Port) uint64 {
	s := dev.RXStats()
	return s.Delivered + s.DropNoBuf + s.DropFull + s.DropRunt
}

// TestWireHardSendErrorIsOneDrop closes the DUT's TX peer, so every send
// fails hard. Each lost frame must be booked exactly once — as a
// tx-ring-full drop, never also as a TX-ring refusal — and the ledger
// must balance.
func TestWireHardSendErrorIsOneDrop(t *testing.T) {
	const n = 50
	genTx, dutRx, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	dutTx, genRx, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	genRx.Close()
	dut := wire.NewPort(wire.Config{Name: "wire0"}, dutRx, dutTx)
	t.Cleanup(func() { dut.Close(); genTx.Close() })
	d, err := NewWireDUTPerCore(Options{Model: click.XChange, Seed: 7}, [][]nic.Port{{dut}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range campusFrames(n) {
		if _, err := genTx.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for offeredTo(dut) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames reached the DUT", offeredTo(dut), n)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	engines := []Engine{&clickEngine{rt: routers[0], core: d.Cores[0]}}
	if _, err := d.ServeWire(ctx, engines, 200*time.Millisecond, 0); err != nil {
		t.Fatalf("wire serve: %v", err)
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	l := d.WireLedger()
	tx, drops := l.Total.TX, &l.Total.Drops
	if tx.Sent != 0 || tx.DropError != n || tx.DropFull != 0 {
		t.Fatalf("TX stats %+v, want all %d frames lost to send errors and none refused", tx, n)
	}
	if drops.Total() != n || drops.Get(stats.DropTxRingFull) != n || l.Total.Offered() != n {
		t.Fatalf("ledger: offered %d, drops [%s], want %d tx-ring-full", l.Total.Offered(), drops, n)
	}
}
