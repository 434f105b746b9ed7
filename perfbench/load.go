package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one request.
type result struct {
	ok       bool // 200 and bit-identical to the reference
	rejected bool // 503 or 504: refused by admission, the queue or a deadline
	batched  int  // images in the batch it rode in (0 when unknown)
	// serverMS is the server's own account of the request (set on a
	// 200): its request-level stages plus the slowest prediction's
	// enqueue-to-answer latency. What the client saw beyond it is HTTP.
	serverMS float64
}

// sendFunc issues request number k of a phase and waits for its answer.
type sendFunc func(ctx context.Context, k int) result

// shot is one scheduled request of a phase.
type shot struct {
	sched time.Duration // due time, from the phase start
	late  time.Duration // dispatch time minus due time
	lat   time.Duration // completion minus due time: coordinated omission is counted
	sent  bool
	res   result
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	name       string
	rate       float64
	start      time.Time // due times count from here
	shots      []shot
	backlogMid int // scheduled but unfinished requests half way through the schedule
	backlogEnd int // ... when the last request fell due
}

// runPhase drives send open-loop: request k falls due at k/rate seconds
// and is handed to the first free connection's worker; at most conns
// requests are in flight. Latency runs from the due time, so when the
// server stalls, every request due during the stall carries the wait
// it imposed. Requests still queued cutoff after the last due time are
// dropped unsent (the phase has failed by then).
func runPhase(ctx context.Context, name string, rate float64, dur time.Duration, conns int, cutoff time.Duration, send sendFunc) *phase {
	n := max(1, int(rate*dur.Seconds()+0.5))
	p := &phase{name: name, rate: rate, shots: make([]shot, n)}
	jobs := make(chan int, n) // sized to the number of sends: dispatch never blocks
	var completed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	p.start = t0
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if stop.Load() || ctx.Err() != nil {
					continue
				}
				s := &p.shots[k]
				s.sent = true
				s.res = send(ctx, k)
				s.lat = time.Since(t0) - s.sched
				completed.Add(1)
			}
		}()
	}
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := time.Duration(float64(k) * float64(time.Second) / rate)
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		p.shots[k].sched = due
		p.shots[k].late = time.Since(t0) - due
		jobs <- k
		if k == n/2 {
			p.backlogMid = k + 1 - int(completed.Load())
		}
	}
	p.backlogEnd = n - int(completed.Load())
	close(jobs)
	t := time.AfterFunc(cutoff, func() { stop.Store(true) })
	wg.Wait()
	t.Stop()
	return p
}

// summary is a phase's counts and latency figures.
type summary struct {
	Name     string  `json:"name"`
	Rate     float64 `json:"rate"`
	Sent     int     `json:"sent"`
	OK       int     `json:"succeeded"`
	Failed   int     `json:"failed"`
	Rejected int     `json:"rejected"` // 503/504, also counted in Failed
	Unsent   int     `json:"unsent"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	MeanMS   float64 `json:"mean_ms"`
	LateMS   float64 `json:"late_p99_ms"`
	Batch    float64 `json:"batch_mean"`
	Growing  bool    `json:"backlog_growing"`
	StealPct float64 `json:"steal_pct"`               // the machine's CPU steal over the phase
	CPUMS    float64 `json:"server_cpu_ms,omitempty"` // server utime+stime over a heavy round

	// Per request, for figures pooled over several phases: latency in
	// ms (+Inf for a failed or unsent request) and dispatch lateness in
	// ms.
	lat, late []float64
}

// summarize computes a phase's figures against the workload's latency
// limit. A failed or unsent request counts as missing every latency
// limit (+Inf latency).
func (p *phase) summarize(conns int, limit time.Duration) summary {
	s := summary{Name: p.name, Rate: p.rate}
	var lat, ok, late, batch []float64
	for _, sh := range p.shots {
		late = append(late, ms(sh.late))
		if !sh.sent {
			s.Unsent++
			lat = append(lat, math.Inf(1))
			continue
		}
		s.Sent++
		if sh.res.batched > 0 {
			batch = append(batch, float64(sh.res.batched))
		}
		switch {
		case sh.res.ok:
			s.OK++
			lat = append(lat, ms(sh.lat))
			ok = append(ok, ms(sh.lat))
		default:
			s.Failed++
			if sh.res.rejected {
				s.Rejected++
			}
			lat = append(lat, math.Inf(1))
		}
	}
	s.P50MS = quantile(lat, 0.5)
	s.P95MS = quantile(lat, tailQ)
	s.MeanMS = mean(ok)
	s.LateMS = quantile(late, 0.99)
	s.Batch = mean(batch)
	s.lat, s.late = lat, late
	// The backlog grows when the second half of the schedule added more
	// than the in-flight window plus half a latency limit's worth of
	// work at the phase's rate.
	s.Growing = p.backlogEnd-p.backlogMid > conns+int(p.rate*limit.Seconds()/2)
	return s
}

// recorded returns s with non-finite latencies (a phase with a failed or
// unsent request) written as -1, which JSON can carry.
func (s summary) recorded() summary {
	for _, v := range []*float64{&s.P50MS, &s.P95MS, &s.MeanMS} {
		if math.IsInf(*v, 0) || math.IsNaN(*v) {
			*v = -1
		}
	}
	return s
}

// meets reports whether the phase met the workload's limit: every
// request answered correctly, the tail within the limit, and a backlog
// that did not grow over the phase.
func (s summary) meets(limit time.Duration) bool {
	return s.Failed == 0 && s.Unsent == 0 && !s.Growing && s.P95MS <= ms(limit)
}

// target posts pool inputs to the server and checks every answer
// against its reference.
type target struct {
	client   *http.Client
	url      string
	endpoint string
	pool     []input
	refs     []reference

	mu       sync.Mutex
	firstBad error // first mismatch or transport error, for the log
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil, // loopback only
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send posts pool input i.
func (t *target) send(ctx context.Context, i int) result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(t.pool[i].body))
	if err != nil {
		t.note(err)
		return result{}
	}
	req.Header.Set("Content-Type", "image/png")
	resp, err := t.client.Do(req)
	if err != nil {
		t.note(err)
		return result{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		t.note(err)
		return result{}
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusGatewayTimeout:
		return result{rejected: true}
	case resp.StatusCode != http.StatusOK:
		t.note(fmt.Errorf("input %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(body)))
		return result{}
	}
	got, err := parseResponse(t.endpoint, body)
	if err != nil {
		t.note(err)
		return result{}
	}
	if err := mismatch(got.ref, t.refs[i]); err != nil {
		t.note(fmt.Errorf("input %d: %w", i, err))
		return result{batched: got.batched}
	}
	return result{ok: true, batched: got.batched, serverMS: got.serverMS}
}

func (t *target) note(err error) {
	t.mu.Lock()
	if t.firstBad == nil {
		t.firstBad = err
	}
	t.mu.Unlock()
}

// cycle maps a phase's request numbers onto the pool from position
// base, so consecutive phases continue through the seed's order.
func (t *target) cycle(base int) sendFunc {
	return func(ctx context.Context, k int) result {
		return t.send(ctx, (base+k)%len(t.pool))
	}
}
