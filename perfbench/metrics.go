package main

import (
	"fmt"
	"math"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesMetrics keeps them equal.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are reported with --trace 0, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"p50_ms.light", "ms", false},
	{"p95_ms.light", "ms", false},
	{"p50_ms.heavy", "ms", false},
	{"p95_ms.heavy", "ms", false},
	{"max_rps", "req/s", true},
	{"cpu_ms_per_req", "ms", false},
	{"rss_mb", "MiB", false},
	{"acc", "ratio", true},
}

// perLayer are reported with --trace 1. A layer a workload never runs
// (extraction on detect-scene, proposal on the classify workloads)
// reports 0.
var perLayer = []metricDef{
	{"imaging.decode_us", "us", false},
	{"pipeline.extract_us", "us", false},
	{"pipeline.descriptors", "count", false},
	{"pipeline.match_us", "us", false},
	{"pipeline.match_pairs", "count", false},
	{"pipeline.match_ns_per_pair", "ns", false},
	{"pipeline.shard_scan_us", "us", false},
	{"pipeline.classify_us", "us", false},
	{"pipeline.propose_us", "us", false},
	{"pipeline.regions", "count", false},
	{"pipeline.hybrid_us", "us", false},
	{"serve.batcher_overhead_us", "us", false},
	{"serve.http_overhead_us", "us", false},
	{"serve.batch_size", "count", true},
	{"serve.wait_ms.heavy", "ms", false},
	{"serve.rejected.light", "count", false},
	{"serve.rejected.heavy", "count", false},
	{"pipeline.gallery_s", "s", false},
	{"pipeline.index_ms", "ms", false},
	{"snapshot.save_ms", "ms", false},
	{"snapshot.map_ms", "ms", false},
	{"snapshot.bytes", "bytes", false},
	{"serve.boot_ms", "ms", false},
	{"load.late_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
	{"trace.unattributed_pct", "%", false},
}

// report checks that m holds exactly the mode's metrics, each a finite
// number, and attaches their units.
func report(m map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics, %d are defined", len(m), len(defs))
	}
	return out, nil
}
