package testbed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/pktbuf"
	"packetmill/internal/telemetry"
	"packetmill/internal/trace"
	"packetmill/internal/wire"
)

// traceRun drives the router config with the flight recorder on and
// returns the exported Chrome trace. When the CI artifact dir is set, a
// watchdog trip dumps the flight recorder there for upload.
func traceRun(seed uint64) ([]byte, error) {
	rec := trace.NewRecorder(trace.Config{SampleEvery: 8, Seed: seed})
	o := Options{
		Model: click.XChange, Cores: 1, NICs: 1, Seed: seed,
		RateGbps: 40, Packets: 4000, Trace: rec,
	}
	if dir := os.Getenv("WIRE_PCAP_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		o.StallTracePath = filepath.Join(dir, fmt.Sprintf("stall-seed%d-trace.json", seed))
	}
	if _, err := Run(nf.Router(32), o); err != nil {
		return nil, err
	}
	return rec.ChromeJSON(), nil
}

// TestTraceDeterministic: the exported trace is a pure function of seed
// and config — byte-identical across repeated runs, byte-identical when
// another run executes concurrently, and different for a different seed.
func TestTraceDeterministic(t *testing.T) {
	a, err := traceRun(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traceRun(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}

	// Two identical runs racing each other: the recorders are per-run and
	// per-core, so concurrency must not leak into the export.
	type out struct {
		raw []byte
		err error
	}
	ch := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			raw, err := traceRun(9)
			ch <- out{raw, err}
		}()
	}
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(a, o.raw) {
			t.Fatalf("concurrent run %d exported a different trace", i)
		}
	}

	c, err := traceRun(10)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds exported identical traces; sampling is not seeded")
	}

	// The export is valid JSON with the expected event shapes.
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		kinds[ev.Ph] = true
	}
	for _, ph := range []string{"X", "i", "M"} {
		if !kinds[ph] {
			t.Errorf("trace has no %q events", ph)
		}
	}
}

// TestWireMetricsScrape serves a mirror NF on live loopback wires with
// the exporter attached, pushes bursts through, and scrapes /metrics and
// /report afterwards, at one core and at two (where the publish gate
// quiesces concurrent cores: the session outlasts one publish interval).
// The exported families must match the golden list
// (testdata/metrics.golden) — dashboards key on those names. The DUT's
// TX ring holds 4 frames, so bursts make it refuse frames the engine
// retries: the ledger must balance offered == tx + drops on every core
// and in total without booking those refusals as drops, and /metrics and
// /report must both agree with it.
func TestWireMetricsScrape(t *testing.T) {
	for _, tc := range []struct {
		cores int
		model click.MetadataModel
	}{
		{1, click.Copying},
		{1, click.XChange},
		{2, click.Copying},
		{2, click.XChange},
	} {
		t.Run(fmt.Sprintf("cores=%d/%s", tc.cores, tc.model), func(t *testing.T) {
			wireMetricsScrape(t, tc.cores, tc.model)
		})
	}
}

func wireMetricsScrape(t *testing.T, cores int, model click.MetadataModel) {
	const nFrames, burst = 300, 32
	ms, err := trace.NewMetricsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	rec := trace.NewRecorder(trace.Config{SampleEvery: 1, Seed: 7})
	d, engs, gens := buildWireMirrorRig(t, cores, 4, Options{
		Model: model, Seed: 7, Telemetry: true, Metrics: ms, Trace: rec,
	})
	engines := make([]Engine, len(engs))
	for i, e := range engs {
		engines[i] = e
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		_, err := d.ServeWire(ctx, engines, 600*time.Millisecond, 0)
		serveDone <- err
	}()
	frames := campusFrames(cores * nFrames)
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		for i := 0; i < nFrames+32; i++ {
			if err := gens[c].Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sendBursts(gens[c], frames[c*nFrames:(c+1)*nFrames], burst); err != nil {
				t.Errorf("core %d generator: %v", c, err)
			}
		}()
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("wire serve: %v", err)
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}

	// The ledger balances per core and in total, and counts no refusal.
	l := d.WireLedger()
	if l.Total.TX.DropFull == 0 {
		t.Fatal("the DUT TX ring never refused a frame; the case exercises nothing")
	}
	for c, cl := range l.Cores {
		if got := cl.Offered(); got != nFrames || got != cl.TX.Sent+cl.Drops.Total() {
			t.Errorf("core %d: offered %d (sent %d) != tx %d + drops %d [%s]; %d TX refusals",
				c, got, nFrames, cl.TX.Sent, cl.Drops.Total(), cl.Drops.String(), cl.TX.DropFull)
		}
	}
	offered, txWire, dropped := l.Total.Offered(), l.Total.TX.Sent, l.Total.Drops.Total()
	if offered != uint64(cores*nFrames) || offered != txWire+dropped {
		t.Errorf("total: offered %d (sent %d) != tx %d + drops %d", offered, cores*nFrames, txWire, dropped)
	}

	// /metrics: every golden family is present, and the TX and drop sums
	// are the ledger's.
	body := httpGet(t, "http://"+ms.Addr()+"/metrics")
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Fields(string(golden)) {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	if !strings.Contains(body, `packetmill_drops_total{reason="tx-ring-full"} `) {
		t.Error("/metrics drop taxonomy is missing the tx-ring-full reason")
	}
	if got := promSum(t, body, "packetmill_tx_packets_total"); got != txWire {
		t.Errorf("/metrics packetmill_tx_packets_total sums to %d, ledger tx %d", got, txWire)
	}
	if got := promSum(t, body, "packetmill_drops_total"); got != dropped {
		t.Errorf("/metrics packetmill_drops_total sums to %d, ledger drops %d", got, dropped)
	}

	// /report: the same document a -report json run prints, with the
	// ledger's totals.
	var rep struct {
		Schema string           `json:"schema"`
		Totals telemetry.Totals `json:"totals"`
		Lat    struct {
			Count uint64 `json:"count"`
		} `json:"latency_us"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+ms.Addr()+"/report")), &rep); err != nil {
		t.Fatalf("/report is not valid JSON: %v", err)
	}
	if rep.Schema == "" {
		t.Error("/report has no schema field")
	}
	if rep.Lat.Count == 0 {
		t.Error("/report latency histogram is empty after a served session")
	}
	if tot := rep.Totals; tot.Offered != offered || tot.TxWire != txWire || tot.Dropped != dropped {
		t.Errorf("/report totals offered %d tx %d dropped %d, ledger %d %d %d",
			tot.Offered, tot.TxWire, tot.Dropped, offered, txWire, dropped)
	}

	// The flight recorder ran on the wall clock and sampled the traffic.
	if rec.Core(0).Sampled() == 0 {
		t.Error("flight recorder sampled nothing on the wire")
	}
	if err := json.Unmarshal(rec.ChromeJSON(), &struct{}{}); err != nil {
		t.Errorf("wire trace is not valid JSON: %v", err)
	}
}

// sendBursts writes frames onto gen in bursts of up to burst frames, one
// doorbell each, and waits for each burst's buffers to come back.
func sendBursts(gen *wire.Port, frames [][]byte, burst int) error {
	bufs := make([]*pktbuf.Packet, burst)
	for i := range bufs {
		bufs[i] = pktbuf.NewPacket(make([]byte, 2300), 0, 128)
	}
	for len(frames) > 0 {
		n := min(burst, len(frames))
		for i, f := range frames[:n] {
			bufs[i].Reset(bufs[i].OrigHeadroom())
			bufs[i].SetFrame(f)
			if !gen.Enqueue(nil, bufs[i], 0) {
				return fmt.Errorf("Enqueue refused")
			}
		}
		gen.Flush()
		deadline := time.Now().Add(5 * time.Second)
		for got := 0; got < n; got += gen.Reap(0, bufs[got:n]) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d of %d TX buffers never came back", n-got, n)
			}
			runtime.Gosched()
		}
		frames = frames[n:]
	}
	return nil
}

// promSum sums every sample of the named family in a text exposition.
func promSum(t *testing.T, body, name string) uint64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		sum += v
	}
	return uint64(sum)
}

func mustParse(t *testing.T, config string) *click.Graph {
	t.Helper()
	g, err := click.Parse(config)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}
