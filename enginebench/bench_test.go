package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/rda/trace"
)

// declared is the metric list of BENCHMARK.json, by name.
type declared map[string]string // name -> unit

func loadDeclared(t *testing.T) (endToEnd, perLayer declared) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = declared{}, declared{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkReported fails unless res reports exactly the declared metrics,
// with their declared units.
func checkReported(t *testing.T, res *result, want declared) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.metrics[name]
		if !ok {
			t.Errorf("metric %s not reported", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s reported in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range res.metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s reported but not declared", name)
		}
	}
}

// shortRun runs one workload for a single measured pass.
func shortRun(t *testing.T, workload string, seed int64) *result {
	t.Helper()
	return shortRunOpts(t, options{workload: workload, seed: seed})
}

func shortRunOpts(t *testing.T, o options) *result {
	t.Helper()
	o.setups, o.minSamples = 1, 1
	workload, seed := o.workload, o.seed
	res, err := runBench(o, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.correct || res.failed != 0 {
		t.Fatalf("%s seed %d: oracle failed (%d of %d failed)", workload, seed, res.failed, res.attempted)
	}
	if got := res.metrics["tx_ok_ratio"].Value; !o.trace && got != 1 {
		t.Fatalf("%s seed %d: tx_ok_ratio %v, want 1", workload, seed, got)
	}
	return res
}

// TestDeterministicCounts checks the benchmark's determinism contract:
// one seed gives bit-identical transfer, log, buffer, disk and recovery
// counts on every run, and another seed gives different ones.
func TestDeterministicCounts(t *testing.T) {
	endToEnd, _ := loadDeclared(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a, b := shortRun(t, w.name, 7), shortRun(t, w.name, 7)
			checkReported(t, a, endToEnd)
			if a.counts != b.counts {
				t.Errorf("seed 7 counts differ between runs:\n%+v\n%+v", a.counts, b.counts)
			}
			if x, y := a.metrics["xfer_per_tx"], b.metrics["xfer_per_tx"]; x != y {
				t.Errorf("seed 7 xfer_per_tx differs between runs: %v vs %v", x, y)
			}
			c := shortRun(t, w.name, 8)
			if a.counts == c.counts {
				t.Errorf("seeds 7 and 8 gave identical counts %+v", a.counts)
			}
		})
	}
}

// TestExpandMatchesPayload checks that the reused-buffer payload
// expansion writes exactly the bytes trace.Payload defines.
func TestExpandMatchesPayload(t *testing.T) {
	for _, n := range []int{8, 100, 2048, 4096} {
		b := &bench{payload: make([]byte, n)}
		for _, arg := range []uint64{0, 1, 0xdeadbeef, 1<<63 + 5} {
			if got, want := b.expand(arg), trace.Payload(arg, n); !bytes.Equal(got, want) {
				t.Fatalf("expand(%#x) into %d bytes differs from trace.Payload", arg, n)
			}
		}
	}
}

// TestTracedRunReportsLayers checks that a traced run reports every
// declared per-layer metric and writes its spans.
func TestTracedRunReportsLayers(t *testing.T) {
	_, perLayer := loadDeclared(t)
	spans := filepath.Join(t.TempDir(), "spans.tsv")
	res := shortRunOpts(t, options{workload: "bank-noforce", seed: 3, trace: true, spansOut: spans})
	checkReported(t, res, perLayer)
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file %s not written: %v", spans, err)
	}
}
