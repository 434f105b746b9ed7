package main

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"snmatch/internal/dataset"
	"snmatch/internal/geom"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve"
	"snmatch/internal/serve/snapshot"
	"snmatch/internal/synth"
)

// TestCorruptedReferenceFailsTheRun serves a small SIFT gallery the way
// snserve -snapshot F -mmap does, checks a clean phase passes, then
// moves one reference score by one ULP and requires the run to count
// the served answer as failed.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves a gallery")
	}
	cfg := dataset.Config{Size: 32, Seed: 1}
	w := &workload{
		name: "test-sift", endpoint: "/classify", pipeline: "sift",
		descriptor: pipeline.SIFT, hasDesc: true, limit: time.Second,
		meta: snapshot.Meta{Dataset: "sns1", Size: 32, Seed: 1},
	}
	pool, err := sampleInputs(1, dataset.BuildSNS2(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pool = pool[:20]

	g := pipeline.NewGalleryWorkers(dataset.BuildSNS1(cfg), 0)
	g.PrepareDescriptorsWorkers(pipeline.SIFT, pipeline.DefaultDescriptorParams(), 0)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snapshot.Save(path, &snapshot.Snapshot{Name: w.meta.Dataset, Meta: w.meta, Gallery: g}); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.AddMapped(w.meta.Dataset, pipeline.NewShardedGallery(m.Snap.Gallery, serveShards), w.meta, m); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	h, err := newHarness(ctx, w, path, &server{base: ts.URL}, pool, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if err := h.evaluate(ctx); err != nil {
		t.Fatal(err)
	}
	// One phase covers the pool once: 20 requests at 50/s.
	if s := h.phase(ctx, "clean", 50, 400*time.Millisecond, false); s.Failed != 0 || h.failed != 0 {
		t.Fatalf("clean run failed %d requests (%v)", h.failed, h.tgt.firstBad)
	}

	ref := &h.tgt.refs[7].preds[0]
	ref.Score = math.Nextafter(ref.Score, math.Inf(1))
	s := h.phase(ctx, "corrupt", 50, 400*time.Millisecond, false)
	if s.Failed != 1 || h.failed != 1 {
		t.Fatalf("a corrupted reference failed %d requests in the phase, %d in the run; want 1 and 1", s.Failed, h.failed)
	}
	if h.tgt.firstBad == nil {
		t.Fatal("the mismatch was not recorded")
	}
}

func TestMismatchComparesEveryField(t *testing.T) {
	want := reference{
		preds: []pipeline.Prediction{{Class: synth.Chair, Index: 3, Score: 0.25}, {Class: synth.Lamp, Index: 9, Score: 1.5}},
		boxes: []geom.Rect{{MinX: 1, MinY: 2, MaxX: 30, MaxY: 40}, {MinX: 50, MinY: 60, MaxX: 70, MaxY: 80}},
	}
	clone := func() reference {
		return reference{preds: append([]pipeline.Prediction(nil), want.preds...), boxes: append([]geom.Rect(nil), want.boxes...)}
	}
	if err := mismatch(clone(), want); err != nil {
		t.Fatalf("identical answers differ: %v", err)
	}
	for name, corrupt := range map[string]func(*reference){
		"class": func(r *reference) { r.preds[1].Class = synth.Sofa },
		"view":  func(r *reference) { r.preds[0].Index++ },
		"score": func(r *reference) { r.preds[1].Score = math.Nextafter(r.preds[1].Score, 0) },
		"box":   func(r *reference) { r.boxes[1].MaxY++ },
		"count": func(r *reference) { r.preds, r.boxes = r.preds[:1], r.boxes[:1] },
	} {
		got := clone()
		corrupt(&got)
		if mismatch(got, want) == nil {
			t.Errorf("%s: a corrupted answer matched the reference", name)
		}
	}
}

func TestSceneAccuracyMatchesAtIoUHalf(t *testing.T) {
	ins := []input{{objects: []synth.SceneObject{
		{Class: synth.Chair, Box: geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}},
		{Class: synth.Lamp, Box: geom.Rect{MinX: 20, MinY: 0, MaxX: 30, MaxY: 10}},
	}}}
	answers := []reference{{
		boxes: []geom.Rect{
			{MinX: 0, MinY: 0, MaxX: 10, MaxY: 8},  // IoU 0.8 with the chair, right class
			{MinX: 20, MinY: 0, MaxX: 30, MaxY: 4}, // IoU 0.4 with the lamp: no match
		},
		preds: []pipeline.Prediction{{Class: synth.Chair}, {Class: synth.Lamp}},
	}}
	if got := accuracy(ins, answers, true); got != 0.5 {
		t.Fatalf("scene accuracy %v, want 0.5", got)
	}
}
