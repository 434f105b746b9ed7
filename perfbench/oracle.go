package main

import (
	"context"
	"encoding/json"
	"fmt"

	"snmatch/internal/geom"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve"
	"snmatch/internal/synth"
)

// reference is the in-process answer for one input: one prediction for
// a classify query, or one (box, prediction) per region for a scene.
type reference struct {
	preds []pipeline.Prediction
	boxes []geom.Rect // detect only, parallel to preds
}

// oracle computes references from the same mapped snapshot the server
// serves, with the server's flags.
type oracle struct {
	w  *workload
	sg *pipeline.ShardedGallery
	p  pipeline.Pipeline
}

func newOracle(w *workload, sg *pipeline.ShardedGallery) (*oracle, error) {
	p, err := serve.ParsePipeline(w.pipeline, ratio)
	if err != nil {
		return nil, err
	}
	return &oracle{w: w, sg: sg, p: p}, nil
}

// reference classifies one input in-process: ShardedGallery.ClassifyStatsCtx
// for a classify query; ProposeCrops and Hybrid.Classify per crop for a
// scene.
func (o *oracle) reference(in input) (reference, error) {
	if o.w.endpoint == "/detect" {
		boxes, crops := pipeline.ProposeCrops(in.img, pipeline.DetectParams{MaxRegions: maxRegions})
		ref := reference{boxes: boxes, preds: make([]pipeline.Prediction, len(crops))}
		for i, c := range crops {
			ref.preds[i] = o.p.Classify(c, o.sg.G)
		}
		return ref, nil
	}
	pred, _, err := o.sg.ClassifyStatsCtx(context.Background(), o.p, in.img)
	if err != nil {
		return reference{}, err
	}
	return reference{preds: []pipeline.Prediction{pred}}, nil
}

// served is what the benchmark reads back from one 200 response.
type served struct {
	ref     reference
	batched int // images in the batch the request rode in
	// serverMS sums the request-level stages_ms (admission, decode and,
	// on /detect, propose) and the largest per-prediction latency_ms
	// (enqueue to answer): the handler's time, as the server reports it.
	serverMS float64
}

// parseResponse decodes a /classify or /detect response body.
func parseResponse(endpoint string, body []byte) (served, error) {
	var s served
	if endpoint == "/detect" {
		var r serve.DetectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return s, fmt.Errorf("decode detect response: %w", err)
		}
		var slowest float64
		for _, g := range r.Regions {
			s.ref.boxes = append(s.ref.boxes, geom.Rect{MinX: g.Box.X, MinY: g.Box.Y, MaxX: g.Box.X + g.Box.W, MaxY: g.Box.Y + g.Box.H})
			s.ref.preds = append(s.ref.preds, pipeline.Prediction{Class: synth.Class(g.ClassID), Index: g.View, Score: g.Score})
			s.batched = g.Batched
			slowest = max(slowest, g.LatencyMS)
		}
		s.serverMS = sumStages(r.StagesMS) + slowest
		return s, nil
	}
	var r serve.ClassifyResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return s, fmt.Errorf("decode classify response: %w", err)
	}
	var slowest float64
	for _, p := range r.Predictions {
		s.ref.preds = append(s.ref.preds, pipeline.Prediction{Class: synth.Class(p.ClassID), Index: p.View, Score: p.Score})
		s.batched = p.Batched
		slowest = max(slowest, p.LatencyMS)
	}
	s.serverMS = sumStages(r.StagesMS) + slowest
	return s, nil
}

// sumStages adds up a response's stage times.
func sumStages(stages map[string]float64) float64 {
	var t float64
	for _, v := range stages {
		t += v
	}
	return t
}

// mismatch reports how a served answer differs from the reference; nil
// when every class, view, score and box is bit-identical. JSON carries
// float64 scores in their shortest round-trip form, so == is exact.
func mismatch(got, want reference) error {
	if len(got.preds) != len(want.preds) || len(got.boxes) != len(want.boxes) {
		return fmt.Errorf("served %d predictions/%d boxes, reference has %d/%d",
			len(got.preds), len(got.boxes), len(want.preds), len(want.boxes))
	}
	for i := range want.preds {
		if got.preds[i] != want.preds[i] {
			return fmt.Errorf("prediction %d: served %+v, reference %+v", i, got.preds[i], want.preds[i])
		}
	}
	for i := range want.boxes {
		if got.boxes[i] != want.boxes[i] {
			return fmt.Errorf("box %d: served %+v, reference %+v", i, got.boxes[i], want.boxes[i])
		}
	}
	return nil
}

// accuracy scores served answers against ground truth: top-1 class for
// classify queries; for scenes, the share of ground-truth objects some
// region claims at IoU >= 0.5 (greedily, in region order) with the
// right class.
func accuracy(ins []input, answers []reference, scenes bool) float64 {
	var hit, total int
	for i, in := range ins {
		a := answers[i]
		if !scenes {
			total++
			if len(a.preds) == 1 && a.preds[0].Class == in.class {
				hit++
			}
			continue
		}
		total += len(in.objects)
		claimed := make([]bool, len(in.objects))
		for r, box := range a.boxes {
			best, bestIoU := -1, 0.5
			for k, obj := range in.objects {
				if claimed[k] {
					continue
				}
				if v := iou(box, obj.Box); v >= bestIoU {
					best, bestIoU = k, v
				}
			}
			if best < 0 {
				continue
			}
			claimed[best] = true
			if a.preds[r].Class == in.objects[best].Class {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

func iou(a, b geom.Rect) float64 {
	inter := a.Intersect(b).Area()
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(a.Area()+b.Area()-inter)
}
