package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stallServer answers every request at once, except that the first
// request arriving after stallAt freezes the whole server for stall:
// every handler waits on the same lock, like a stop-the-world pause.
type stallServer struct {
	start          time.Time
	stallAt, stall time.Duration

	mu       sync.Mutex // held for the stall
	once     sync.Once
	begin    time.Time // when the stall began (set once)
	stallEnd time.Time
}

func (s *stallServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if time.Since(s.start) >= s.stallAt {
		s.once.Do(func() {
			s.mu.Lock()
			s.begin = time.Now()
			time.Sleep(s.stall)
			s.stallEnd = time.Now()
			s.mu.Unlock()
		})
	}
	s.mu.Lock() // waits out the stall
	defer s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func TestOpenLoopCountsCoordinatedOmission(t *testing.T) {
	const (
		rate  = 200.0
		dur   = 1200 * time.Millisecond
		conns = 2
	)
	stub := &stallServer{start: time.Now(), stallAt: 300 * time.Millisecond, stall: 200 * time.Millisecond}
	ts := httptest.NewServer(stub)
	defer ts.Close()
	client := newHTTPClient(conns)
	send := func(ctx context.Context, k int) result {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
		if err != nil {
			return result{}
		}
		resp, err := client.Do(req)
		if err != nil {
			return result{}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return result{ok: resp.StatusCode == http.StatusOK}
	}

	p := runPhase(context.Background(), "stall", rate, dur, conns, 10*time.Second, send)
	s := p.summarize(conns, 50*time.Millisecond)
	if s.OK != len(p.shots) {
		t.Fatalf("%d of %d requests succeeded", s.OK, len(p.shots))
	}

	// Every request that fell due while the server was frozen must carry
	// the rest of the stall in its latency: it could not complete before
	// the stall ended, and latency runs from the due time, not from when
	// a connection became free.
	begin := stub.begin.Sub(p.start)
	end := stub.stallEnd.Sub(p.start)
	const slack = 100 * time.Microsecond // clock reads on either side of the stall
	var during int
	for k, sh := range p.shots {
		if sh.sched < begin || sh.sched >= end {
			continue
		}
		during++
		if want := end - sh.sched - slack; sh.lat < want {
			t.Errorf("request %d due at %v during the stall [%v, %v): latency %v, want >= %v",
				k, sh.sched, begin, end, sh.lat, want)
		}
	}
	if min := int(rate * 0.15); during < min {
		t.Fatalf("only %d requests fell due during the stall, want >= %d", during, min)
	}
	// The generator itself kept its schedule through the stall: its
	// dispatch delay stays a small fraction of the stall.
	if s.LateMS > ms(stub.stall)/10 {
		t.Errorf("generator dispatched late: p99 %.2f ms during a %v stall", s.LateMS, stub.stall)
	}
	// And the stall shows in the tail: p95 covers the requests queued
	// behind it (about a fifth of the stall's length or more).
	if s.P95MS < ms(stub.stall)/5 {
		t.Errorf("p95 %.1f ms hides a %v stall", s.P95MS, stub.stall)
	}
}

func TestPhaseCutoffDropsUnsentRequests(t *testing.T) {
	// A server slower than the offered rate: the backlog grows, and
	// requests still queued at the cutoff are dropped unsent.
	send := func(ctx context.Context, k int) result {
		time.Sleep(20 * time.Millisecond)
		return result{ok: true}
	}
	p := runPhase(context.Background(), "overload", 200, 500*time.Millisecond, 1, 10*time.Millisecond, send)
	s := p.summarize(1, 50*time.Millisecond)
	if s.Unsent == 0 || !s.Growing || s.meets(50*time.Millisecond) {
		t.Fatalf("overloaded phase: %+v; want unsent requests, a growing backlog and a miss", s)
	}
}

func TestConnsAboveNProcRefused(t *testing.T) {
	o := options{workload: "classify-sift", seconds: 1, conns: 1 << 20, bin: "run.sh"}
	if err := o.validate(); err == nil {
		t.Fatal("a generator with more connections than nproc was accepted")
	}
	o.conns = 1
	if err := o.validate(); err != nil {
		t.Fatalf("one connection refused: %v", err)
	}
}
