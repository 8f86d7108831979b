// Command perfbench is the repository's benchmark: it runs one named
// workload through the public seams of the datapath (core, testbed,
// wire), checks the outputs, and prints the two performance ledgers —
// host time the Go code spends and the cost model's cycles — end to end
// or, with -trace 1, layer by layer. NOTES.md explains the workloads and
// what each metric should move.
//
//	go run . -workload mirror-64b -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check prints
// its named reason, reports "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed uint64
	e2e, layer        map[string]float64
	notes             []string
}

// newOutcome starts every per-layer metric at 0, the value a workload
// reports for a layer it bypasses.
func newOutcome() *outcome {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, s := range perLayer {
		o.layer[s.name] = 0
	}
	return o
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// checkError is a failed correctness check, named so a failing run says
// which invariant broke.
type checkError struct{ check, detail string }

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

// workload is one named benchmark workload: a simulated-testbed one, or
// one with its own run function.
type workload struct {
	name, why string
	sim       *simWorkload
	run       func(cfg runConfig) (*outcome, error)
}

func (w workload) measure(cfg runConfig) (*outcome, error) {
	if w.sim != nil {
		return w.sim.run(w.name, cfg)
	}
	return w.run(cfg)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
	digestSeeds := flag.Int("write-digests", 0, "print the digests.json table for seeds 0..N-1 and exit")
	flag.Parse()
	if *digestSeeds > 0 {
		if err := writeDigests(*digestSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := w.measure(cfg)
	var ce *checkError
	switch {
	case errors.As(err, &ce):
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		printResult(false, 1, 1, nil)
		os.Exit(1)
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	specs, values := endToEnd, out.e2e
	if cfg.trace {
		specs, values = perLayer, out.layer
	}
	fmt.Printf("# %s seed %d, %.0f s, trace %d\n", w.name, cfg.seed, cfg.seconds, *trace)
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	for _, s := range specs {
		fmt.Printf("%-32s %16.6f %s\n", s.name, values[s.name], s.unit)
	}
	if !cfg.trace {
		if bad := badEndToEnd(values); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no positive value for %s\n", w.name, strings.Join(bad, ", "))
			os.Exit(1)
		}
	}
	printResult(true, out.attempted, out.failed, metricsJSON(specs, values))
}

// badEndToEnd lists end-to-end metrics the run left unset, zero or not
// finite: every one of them is defined on every workload.
func badEndToEnd(values map[string]float64) []string {
	var bad []string
	for _, s := range endToEnd {
		if v, ok := values[s.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			bad = append(bad, s.name)
		}
	}
	return bad
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsJSON(specs []metricSpec, values map[string]float64) map[string]metricValue {
	m := map[string]metricValue{}
	for _, s := range specs {
		m[s.name] = metricValue{values[s.name], s.unit}
	}
	return m
}

func printResult(correct bool, attempted, failed uint64, metrics map[string]metricValue) {
	if metrics == nil {
		metrics = map[string]metricValue{}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
