package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"snmatch/internal/pipeline"
)

// With no steal every round is quiet, and every request in them counts:
// one slow round in ten holds a tenth of the requests, so the p95 is
// theirs.
func TestQuietLatencyPoolsQuietRounds(t *testing.T) {
	var rounds []summary
	for r := 0; r < 10; r++ {
		v := 10.0
		if r == 3 {
			v = 100
		}
		rounds = append(rounds, summary{lat: fill(100, v)})
	}
	if got := quietLatency(rounds, 0.5); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := quietLatency(rounds, tailQ); got != 100 {
		t.Errorf("p95 = %v, want the slow round's 100", got)
	}
	if got := pooledMean(rounds); got != 19 {
		t.Errorf("pooled mean = %v, want 19", got)
	}
}

// Rounds are picked by CPU steal, never by latency: the rounds under
// steal are left out however fast they ran, and a slow program shows in
// the quiet ones.
func TestQuietLatencyPicksRoundsBySteal(t *testing.T) {
	// Each round's latency (all its requests alike) and the machine's
	// steal over it.
	lat := []float64{30, 5, 30, 5, 12, 12, 12, 12, 13, 14}
	steal := []float64{9, 8, 7, 6, 0, 1, 0, 2, 1, 0}
	var rounds []summary
	for i := range lat {
		rounds = append(rounds, summary{lat: fill(10, lat[i]), StealPct: steal[i]})
	}
	// The quiet rounds (steal <= quietSteal) ran at 12, 12, 12, 13 and
	// 14 ms; the fast 5 ms rounds ran under steal and do not count.
	if lo, hi := quietLatency(rounds, 0), quietLatency(rounds, 1); lo != 12 || hi != 14 {
		t.Errorf("quiet latencies span [%v, %v] ms, want [12, 14], the quiet rounds'", lo, hi)
	}
}

// When fewer than a quarter of the samples are quiet, the quarter with
// the least steal counts.
func TestQuietKeepsAtLeastAQuarter(t *testing.T) {
	steal := []float64{9, 4, 8, 30, 5, 7, 6, 1}
	got := quiet(steal, func(s float64) float64 { return s })
	if want := []float64{4, 1}; !slices.Equal(got, want) {
		t.Errorf("quiet = %v, want %v (the two least-steal samples, in order)", got, want)
	}
	steal = []float64{0, 2, 0.5, 1.5, 3, 0, 0, 0}
	got = quiet(steal, func(s float64) float64 { return s })
	if want := []float64{0, 0.5, 1.5, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("quiet = %v, want %v (every sample with steal <= %v)", got, want, quietSteal)
	}
}

func fill(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// searchHarness is a harness whose target is a stub answering every
// request with status, a one-prediction body that matches the
// reference.
func searchHarness(t *testing.T, status int) *harness {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte(`{"predictions":[{"class_id":0,"view":0,"score":0,"latency_ms":0.1}],"stages_ms":{"decode":0.1}}`))
	}))
	t.Cleanup(ts.Close)
	tgt := &target{
		client: newHTTPClient(1), url: ts.URL, endpoint: "/classify",
		pool: []input{{}}, refs: []reference{{preds: []pipeline.Prediction{{}}}},
	}
	return &harness{w: &workload{limit: 50 * time.Millisecond}, tgt: tgt, conns: 1}
}

// search runs the max_rps search alone from rate first until it is
// done or budget has no room for its next run, and returns its result.
// Every failed run counts.
func search(t *testing.T, h *harness, first float64, budget time.Duration) (float64, map[float64]bool) {
	deadline := time.Now().Add(budget)
	s := &searcher{rate: first}
	for !s.done() && time.Until(deadline) >= probeLength(s.rate) {
		h.probe(t.Context(), s, probeLength(s.rate), 100)
	}
	got, censored := s.result()
	h.censored = censored
	ran := map[float64]bool{}
	for _, s := range h.summaries {
		if strings.HasPrefix(s.Name, "search@") {
			ran[s.Rate] = true
		}
	}
	return got, ran
}

func TestSearchNeverReportsARateItDidNotRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timed probes")
	}
	t.Run("ceiling", func(t *testing.T) {
		// Every rate passes: the search steps up past its first rate and
		// reports the highest rate it ran, flagged as a lower bound.
		h := searchHarness(t, http.StatusOK)
		got, ran := search(t, h, 200, 6*time.Second)
		if !ran[got] || got <= 200 {
			t.Errorf("max_rps %v: want a rate above 200 that was run (ran %v)", got, ran)
		}
		if !strings.HasPrefix(h.censored, "below") {
			t.Errorf("censored = %q, want the result flagged as a lower bound", h.censored)
		}
	})
	t.Run("floor", func(t *testing.T) {
		// Every rate fails: the result is the lowest rate run, flagged as
		// an upper bound, never a rate below it that was not run.
		h := searchHarness(t, http.StatusServiceUnavailable)
		got, ran := search(t, h, 200, 6*time.Second)
		if !ran[got] || got >= 200 {
			t.Errorf("max_rps %v: want a rate below 200 that was run (ran %v)", got, ran)
		}
		if !strings.HasPrefix(h.censored, "above") {
			t.Errorf("censored = %q, want the result flagged as an upper bound", h.censored)
		}
	})
}

// The searcher steps out until it has a rate on each side of the limit,
// then bisects to searchResolution; a rate fails on a counted failed
// run, or after searchRuns runs however many counted.
func TestSearcherBracketsAndBisects(t *testing.T) {
	const capacity = 100.0 // rates up to this pass
	s := &searcher{rate: 40}
	var ran []float64
	for !s.done() && len(ran) < 100 {
		ran = append(ran, s.rate)
		s.record(s.rate <= capacity, true)
	}
	got, censored := s.result()
	if censored != "" || got > capacity || capacity/got > searchResolution {
		t.Fatalf("result %v (%q) after %v: want within %v of %v", got, censored, ran, searchResolution, capacity)
	}
	if !slices.Contains(ran, got) {
		t.Errorf("result %v was never run (ran %v)", got, ran)
	}

	s = &searcher{rate: 50}
	for i := 1; i < searchRuns; i++ {
		s.record(false, false) // under steal: does not count
		if s.rate != 50 {
			t.Fatalf("rate moved to %v after %d failed runs under steal", s.rate, i)
		}
	}
	s.record(false, false) // the last run: the rate fails
	if s.hi != 50 || s.rate == 50 {
		t.Errorf("after %d runs: hi %v, rate %v; want 50 failed and a lower rate next", searchRuns, s.hi, s.rate)
	}
	s = &searcher{rate: 50}
	s.record(false, true)
	if s.hi != 50 || s.rate == 50 {
		t.Errorf("after a counted failure: hi %v, rate %v; want 50 failed and a lower rate next", s.hi, s.rate)
	}
}

func TestServerTimeIsParsed(t *testing.T) {
	h := searchHarness(t, http.StatusOK)
	res := h.tgt.send(t.Context(), 0)
	if !res.ok || res.serverMS != 0.2 {
		t.Fatalf("send = %+v, want ok with serverMS 0.2 (decode 0.1 + slowest prediction 0.1)", res)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	ran := false
	r.timed("x", 0, -1, func() { ran = true })
	if id := r.begin("y", 0, -1); id != -1 || !ran {
		t.Fatalf("nil recorder: begin = %d, fn ran = %v", id, ran)
	}
	r.end(-1)
}
