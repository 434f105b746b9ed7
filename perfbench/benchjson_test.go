package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// The rates and limits live in the code; each workload's "why" line in
// BENCHMARK.json must state the same numbers.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := b.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, got.Name, w.name)
		}
		for _, want := range []string{
			fmt.Sprintf("rates %g/%g req/s", w.light, w.heavy),
			fmt.Sprintf("p95 limit %g ms", ms(w.limit)),
		} {
			if !strings.Contains(got.Why, want) {
				t.Errorf("%s: why %q does not state %q", w.name, got.Why, want)
			}
		}
		if len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark reports %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
				i, got.Name, got.Unit, got.Better, d.name, d.unit, better(d.higher))
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
				i, got.Name, got.Unit, got.Better, d.name, d.unit, better(d.higher))
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}
