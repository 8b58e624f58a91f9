package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// requires a correct run with no failed operation that reports exactly
// the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for _, name := range []string{"lookup", "storm", "churn"} {
		for _, trace := range []bool{false, true} {
			w := toy(workloads[name])
			res, err := run(config{w: w, seed: 3, seconds: time.Second, trace: trace, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, want)
				}
			}
		}
	}
}
