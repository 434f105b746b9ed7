package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// harness holds one run's server, references and counters.
type harness struct {
	w     *workload
	m     *snapshot.Mapping
	sg    *pipeline.ShardedGallery
	srv   *server
	conns int
	rec   *recorder

	tgt     *target // the timed pool
	evalTgt *target // the accuracy pool (the timed pool on classify workloads)

	mapMS     float64
	acc       float64
	setUps    func(context.Context) error // a burst of set-ups, run before each load round
	pooled    map[string]float64          // pooled figures and request counts, for the record
	censored  string                      // why max_rps is not bracketed, for the record
	next      int                         // pool position the next phase starts at
	attempted int
	failed    int
	summaries []summary
}

// newHarness maps the snapshot the server runs on and computes every
// input's reference before any timing.
func newHarness(ctx context.Context, w *workload, snapPath string, srv *server, pool, evalPool []input, conns int) (*harness, error) {
	t := time.Now()
	m, err := snapshot.Map(snapPath)
	if err != nil {
		return nil, fmt.Errorf("map snapshot: %w", err)
	}
	h := &harness{w: w, m: m, srv: srv, conns: conns, rec: newRecorder(), mapMS: ms(time.Since(t))}
	if err := m.Snap.Gallery.SetIndexSpec(pipeline.IndexSpec{Kind: pipeline.ExactKind}); err != nil {
		m.Close()
		return nil, err
	}
	h.sg = pipeline.NewShardedGallery(m.Snap.Gallery, serveShards)
	o, err := newOracle(w, h.sg)
	if err != nil {
		m.Close()
		return nil, err
	}
	client := newHTTPClient(conns)
	url := srv.base + w.endpoint + "?pipeline=" + w.pipeline
	mk := func(ins []input) (*target, error) {
		refs := make([]reference, len(ins))
		for i, in := range ins {
			ref, err := o.reference(in)
			if err != nil {
				return nil, fmt.Errorf("reference for input %d: %w", i, err)
			}
			refs[i] = ref
		}
		return &target{client: client, url: url, endpoint: w.endpoint, pool: ins, refs: refs}, nil
	}
	if h.tgt, err = mk(pool); err == nil {
		h.evalTgt = h.tgt
		if w.evalInputs != nil {
			h.evalTgt, err = mk(evalPool)
		}
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { h.m.Close() }

// evaluate serves the accuracy pool once, serially, checks every answer
// and scores it. It doubles as the server's warm-up.
func (h *harness) evaluate(ctx context.Context) error {
	t := h.evalTgt
	answers := make([]reference, len(t.pool))
	for i := range t.pool {
		res := t.send(ctx, i)
		h.attempted++
		if !res.ok {
			h.failed++
			continue
		}
		answers[i] = t.refs[i]
	}
	h.acc = accuracy(t.pool, answers, h.w.endpoint == "/detect")
	return ctx.Err()
}

// phase runs one open-loop phase over the timed pool. In a load phase
// (light, heavy) a request the generator never got to send counts as
// attempted and failed; a max_rps search step that overloads the server
// is cut short, and only what it sent counts.
func (h *harness) phase(ctx context.Context, name string, rate float64, dur time.Duration, search bool) summary {
	send := h.tgt.cycle(h.next)
	cutoff := 10 * time.Second
	if search {
		cutoff = h.w.limit
	}
	steal0, total0 := cpuTicks()
	p := runPhase(ctx, name, rate, dur, h.conns, cutoff, send)
	steal := stealPct(steal0, total0)
	h.next += len(p.shots)
	s := p.summarize(h.conns, h.w.limit)
	s.StealPct = steal
	h.summaries = append(h.summaries, s.recorded())
	h.attempted += s.Sent
	h.failed += s.Failed
	if !search {
		h.attempted += s.Unsent
		h.failed += s.Unsent
	}
	return s
}

// loadRounds are the interleaved light and heavy phases of a run.
type loadRounds struct{ light, heavy []summary }

// rounds is how many light/heavy pairs a run interleaves, so slow drift
// in host speed hits both rates alike and a burst of interference
// spoils a few rounds, not the run.
const rounds = 20

// warmUp is how long the server is driven at the heavy rate before the
// first round. The serial accuracy pass leaves the concurrent path cold:
// without it the first heavy round's p95 ran up to three times the
// others' on detect-scene.
const warmUp = 2 * time.Second

// round runs one light and one heavy phase of length each, after a
// burst of set-ups, measuring the server's CPU time over the heavy one.
// The first round is preceded by the warm-up phase, whose requests are
// checked and counted but enter no figure.
func (h *harness) round(ctx context.Context, lr *loadRounds, each time.Duration) error {
	r := len(lr.heavy) + 1
	if h.setUps != nil {
		if err := h.setUps(ctx); err != nil {
			return err
		}
	}
	if r == 1 {
		h.phase(ctx, "warmup", h.w.heavy, warmUp, false)
	}
	lr.light = append(lr.light, h.phase(ctx, fmt.Sprintf("light#%d", r), h.w.light, each, false))
	cpu0, err := cpuTime(h.srv.pid())
	if err != nil {
		return err
	}
	heavy := h.phase(ctx, fmt.Sprintf("heavy#%d", r), h.w.heavy, each, false)
	cpu1, err := cpuTime(h.srv.pid())
	if err != nil {
		return err
	}
	heavy.CPUMS = ms(cpu1 - cpu0)
	h.summaries[len(h.summaries)-1].CPUMS = heavy.CPUMS // the record's copy
	lr.heavy = append(lr.heavy, heavy)
	return nil
}

// load runs the rounds back to back, sharing total.
func (h *harness) load(ctx context.Context, total time.Duration) (loadRounds, error) {
	var lr loadRounds
	for len(lr.heavy) < rounds && ctx.Err() == nil {
		if err := h.round(ctx, &lr, total/(2*rounds)); err != nil {
			return lr, err
		}
	}
	return lr, ctx.Err()
}

// quietLatency is the latency figure a run reports for a rate: the
// q-quantile of every request's latency over the rate's quiet rounds
// (see quiet). Every slow request in those rounds counts; the record
// carries every round with its steal, and each figure pooled over all
// the rate's rounds.
func quietLatency(ss []summary, q float64) float64 {
	return pooled(quiet(ss, stealOf), q)
}

func stealOf(s summary) float64 { return s.StealPct }

// cpuPerReq is the server's CPU time per successful request over the
// given heavy rounds.
func cpuPerReq(ss []summary) float64 {
	var cpu float64
	var ok int
	for _, s := range ss {
		cpu += s.CPUMS
		ok += s.OK
	}
	return cpu / float64(max(ok, 1))
}

// quietSteal is the CPU steal, in percent, up to which a sample counts
// as taken on a quiet machine. A timed phase at --seconds 50 lasts
// 0.75 s, 150 clock ticks on two CPUs, so it may lose two ticks.
const quietSteal = 1.5

// quiet returns the samples taken while the machine was quiet: every
// one whose CPU steal was at most quietSteal, and at least the quarter
// with the least steal. Steal is time the hypervisor gave this
// machine's CPUs to other tenants. On a shared host it comes in bursts
// that slow everything running then, and the program cannot cause it,
// so samples are picked by it and never by their own value: a
// regression that slows most samples (a GC pause, a slower kernel)
// moves a figure whichever samples are picked.
func quiet[T any](xs []T, steal func(T) float64) []T {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal(xs[a]), steal(xs[b])) })
	n := (len(xs) + 3) / 4
	for n < len(xs) && steal(xs[idx[n]]) <= quietSteal {
		n++
	}
	keep := idx[:n]
	slices.Sort(keep)
	out := make([]T, 0, n)
	for _, i := range keep {
		out = append(out, xs[i])
	}
	return out
}

// pooled returns the q-quantile of every request's latency over the
// given rounds of one rate.
func pooled(ss []summary, q float64) float64 {
	return quantile(concat(ss, func(s summary) []float64 { return s.lat }), q)
}

// pooledMean is the mean latency of the requests answered correctly
// over the rounds of one rate.
func pooledMean(ss []summary) float64 {
	var ok []float64
	for _, v := range concat(ss, func(s summary) []float64 { return s.lat }) {
		if !math.IsInf(v, 1) {
			ok = append(ok, v)
		}
	}
	return mean(ok)
}

func concat(ss []summary, f func(summary) []float64) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, f(s)...)
	}
	return out
}

// loadShare is the share of a timed run's budget the light/heavy
// rounds take. The max_rps search runs between them, one probe run
// after each round, in the rest; so the rounds, and the quiet ones
// among them, are spread over the whole run rather than its first part.
const loadShare = 0.6

// timed runs the end-to-end phases: the light/heavy rounds, and between
// them the runs of the max_rps search. The budget is the time the
// phases take; the set-up bursts and the warm-up come on top of it.
func (h *harness) timed(ctx context.Context, budget time.Duration) (map[string]float64, error) {
	var used time.Duration // phase time so far
	each := time.Duration(loadShare * float64(budget) / (2 * rounds))
	var lr loadRounds
	s := &searcher{rate: searchFirst * h.w.heavy}
	searching := true
	for ctx.Err() == nil && (len(lr.heavy) < rounds || searching && !s.done()) {
		if len(lr.heavy) < rounds {
			if err := h.round(ctx, &lr, each); err != nil {
				return nil, err
			}
			used += 2 * each
		}
		if !searching || s.done() {
			continue
		}
		// A probe run starts only if the rounds still to run keep their
		// time.
		dur := probeLength(s.rate)
		if used+time.Duration(rounds-len(lr.heavy))*2*each+dur > budget {
			searching = false
			continue
		}
		h.probe(ctx, s, dur, max(quietSteal, medianSteal(lr)))
		used += dur
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	maxRPS, censored := s.result()
	h.censored = censored
	rss, err := peakRSS(h.srv.pid())
	if err != nil {
		return nil, err
	}
	// The figures over all rounds are recorded beside the reported ones,
	// p99s too.
	h.pooled = map[string]float64{"cpu_ms_per_req": cpuPerReq(lr.heavy)}
	for _, rate := range []struct {
		name string
		ss   []summary
	}{{"light", lr.light}, {"heavy", lr.heavy}} {
		h.pooled["requests."+rate.name] = float64(len(concat(rate.ss, func(s summary) []float64 { return s.lat })))
		h.pooled["quiet_requests."+rate.name] = float64(len(concat(quiet(rate.ss, stealOf), func(s summary) []float64 { return s.lat })))
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p95", tailQ}, {"p99", 0.99}} {
			h.pooled[q.name+"_ms."+rate.name] = finite(pooled(rate.ss, q.q))
		}
	}
	return map[string]float64{
		"p50_ms.light":   quietLatency(lr.light, 0.5),
		"p95_ms.light":   quietLatency(lr.light, tailQ),
		"p50_ms.heavy":   quietLatency(lr.heavy, 0.5),
		"p95_ms.heavy":   quietLatency(lr.heavy, tailQ),
		"max_rps":        maxRPS,
		"cpu_ms_per_req": cpuPerReq(quiet(lr.heavy, stealOf)),
		"rss_mb":         float64(rss) / (1 << 20),
		"acc":            h.acc,
	}, nil
}

// medianSteal is the median CPU steal over the load rounds run so far.
func medianSteal(lr loadRounds) float64 {
	var steal []float64
	for _, s := range append(slices.Clone(lr.light), lr.heavy...) {
		steal = append(steal, s.StealPct)
	}
	return median(steal)
}

// finite writes a non-finite figure as -1, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// Search knobs. The search starts at searchFirst times the heavy rate,
// about the capacity on the host the rates were fixed on. From there it
// steps outward by factors of searchSpan until it has run a rate on
// each side of the limit, then bisects (geometrically) that bracket
// until it is narrower than searchResolution, finer than the max_rps
// bound in BENCHMARK.json. A probe run lasts searchStep, or long enough
// to send searchRequests requests, so its p95 has fifteen samples beyond
// it. In a run this long the requests one brief stall holds up past the
// limit are a smaller share of the whole, so a stall fails fewer runs.
// A failed run under CPU steal (see probe) is run again, up to
// searchRuns runs, so a burst of interference on the host cannot cut
// the search short.
const (
	searchFirst      = 2
	searchStep       = 2500 * time.Millisecond
	searchRequests   = 300
	searchSpan       = 1.25
	searchResolution = 1.03
	searchRuns       = 2
)

// probeLength is how long a probe run at rate r lasts.
func probeLength(r float64) time.Duration {
	return max(searchStep, time.Duration(searchRequests/r*float64(time.Second)))
}

// searcher is the state of a max_rps search: the highest offered rate
// that meets the workload's limit. Every rate it reports has been run:
// the highest that passed, or, when none did, the lowest that failed.
type searcher struct {
	lo, hi float64 // highest rate run that passed, lowest that failed; 0 means none yet
	rate   float64 // the rate under test; 0 once the result is bracketed
	runs   int     // runs at rate so far
}

func (s *searcher) done() bool { return s.rate == 0 }

// record takes the verdict of a run at s.rate. A failed run that does
// not count (it ran under more CPU steal than the machine's quiet
// level, see probe) fails the rate only when it was the rate's last
// run.
func (s *searcher) record(ok, counts bool) {
	s.runs++
	switch {
	case ok:
		s.lo = s.rate
	case counts || s.runs >= searchRuns:
		s.hi = s.rate
	default:
		return // the rate runs again
	}
	s.runs = 0
	switch {
	case s.hi == 0:
		s.rate = s.lo * searchSpan
	case s.lo == 0:
		s.rate = s.hi / searchSpan
	case s.hi/s.lo > searchResolution:
		s.rate = math.Sqrt(s.lo * s.hi)
	default:
		s.rate = 0
	}
}

// result is the search's figure and, when the budget ran out before it
// was bracketed to searchResolution, which way the true figure lies.
func (s *searcher) result() (float64, string) {
	switch {
	case s.lo == 0 && s.hi == 0:
		return 0, "none: the budget had no room for a search run"
	case s.hi == 0:
		return s.lo, fmt.Sprintf("below: every rate run passed; max_rps is at least %.1f", s.lo)
	case s.lo == 0:
		return s.hi, fmt.Sprintf("above: no rate run passed; max_rps is below %.1f", s.hi)
	case !s.done():
		return s.lo, fmt.Sprintf("coarse: budget ran out with max_rps in [%.1f, %.1f)", s.lo, s.hi)
	}
	return s.lo, ""
}

// probe makes one search run of length dur at s.rate. A failed run
// counts when its CPU steal was at most stealCut: quietSteal, or the
// load rounds' median steal when the machine has been busier than that
// (see quiet).
func (h *harness) probe(ctx context.Context, s *searcher, dur time.Duration, stealCut float64) {
	run := h.phase(ctx, fmt.Sprintf("search@%.1f#%d", s.rate, s.runs+1), s.rate, dur, true)
	s.record(run.meets(h.w.limit), run.StealPct <= stealCut)
}

// traced runs the per-layer measurement: the untraced light/heavy
// rounds (batching, waits, rejections, generator lateness), then the
// serial replay, each input once traced and once with no recorder, so
// the pair's difference is what tracing costs.
func (h *harness) traced(ctx context.Context, budget time.Duration) (map[string]float64, error) {
	lr, err := h.load(ctx, budget/2)
	if err != nil {
		return nil, err
	}

	rp, err := newReplay(h.w, h.sg, h.tgt, h.rec)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	plain, err := newReplay(h.w, h.sg, h.tgt, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	// Warm the in-process pools and caches on a few inputs, then start
	// the trace afresh.
	for i := 0; i < min(3, len(h.tgt.pool)); i++ {
		for _, r := range []*replay{rp, plain} {
			if _, err := r.run(ctx, -1, i); err != nil {
				return nil, err
			}
		}
	}
	h.rec.reset()
	rp.descriptors, rp.pairs, rp.regions, rp.serverMS = nil, nil, nil, nil
	// Tracing cost: each input's traced run against its untraced one,
	// alternating which goes first so warm caches favour neither.
	var cost []float64
	for i := range h.tgt.pool {
		var wall [2]time.Duration
		for j := range 2 {
			k := (i + j) % 2 // 0 traced, 1 plain
			r := []*replay{rp, plain}[k]
			t := time.Now()
			res, err := r.run(ctx, i, i)
			wall[k] = time.Since(t)
			if err != nil {
				return nil, err
			}
			h.attempted++
			if !res.ok {
				h.failed++
			}
		}
		cost = append(cost, float64(wall[0])/float64(wall[1])-1)
	}
	m := rp.layerMetrics(pooledMean(lr.light))

	var batch []float64
	var rejLight, rejHeavy int
	for i := range lr.heavy {
		batch = append(batch, lr.heavy[i].Batch)
		rejLight += lr.light[i].Rejected
		rejHeavy += lr.heavy[i].Rejected
	}
	late := append(concat(lr.light, func(s summary) []float64 { return s.late }),
		concat(lr.heavy, func(s summary) []float64 { return s.late })...)
	m["serve.batch_size"] = mean(batch)
	m["serve.wait_ms.heavy"] = quietLatency(lr.heavy, 0.5) - quietLatency(lr.light, 0.5)
	m["serve.rejected.light"] = float64(rejLight)
	m["serve.rejected.heavy"] = float64(rejHeavy)
	m["snapshot.map_ms"] = h.mapMS
	m["load.late_ms"] = quantile(late, 0.99)
	m["trace.overhead_pct"] = 100 * median(cost)
	return m, ctx.Err()
}
