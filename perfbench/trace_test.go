package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	// request [0,100)
	//   decode [10,20)
	//   submit [30,90)
	//     crop a [40,60)   overlapping siblings: union [40,70) = 30
	//     crop b [50,70)
	//   http   [95,110)    runs past its parent: only [95,100) covers it
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "decode", Parent: 0, Start: 10, End: 20},
		{Name: "submit", Parent: 0, Start: 30, End: 90},
		{Name: "crop", Parent: 2, Start: 40, End: 60},
		{Name: "crop", Parent: 2, Start: 50, End: 70},
		{Name: "http", Parent: 0, Start: 95, End: 110},
	}
	want := []time.Duration{
		100 - (10 + 60 + 5), // children decode, submit, clipped http
		10,
		60 - 30,
		20,
		20,
		15,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeDisjointAndNestedChildren(t *testing.T) {
	// A grandchild does not count against its grandparent directly:
	// the child's whole interval already covers it.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 50},
		{Name: "a", Parent: 0, Start: 0, End: 10},
		{Name: "b", Parent: 0, Start: 20, End: 40},
		{Name: "b.inner", Parent: 2, Start: 25, End: 30},
	}
	got := selfTimes(spans)
	want := []time.Duration{20, 10, 15, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndGroups(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", 7, -1)
	r.timed("leaf", 7, root, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Req != 7 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	by := selfByName(spans)
	if by["leaf"][0] < 1000 {
		t.Errorf("leaf self time %.0fus, want >= 1000us", by["leaf"][0])
	}
	if by["request"][0] < 0 || by["request"][0] >= by["leaf"][0] {
		t.Errorf("root self time %.0fus should be the small gap around its child", by["request"][0])
	}
}
