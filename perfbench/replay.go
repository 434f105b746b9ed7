package main

import (
	"bytes"
	"context"
	"fmt"
	"image/png"
	"sync/atomic"

	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve"
)

// replay is the traced run: it replays the pool serially against the
// same mapped snapshot, wrapping each call into a layer's public
// function in a span. Every input gets one root span ("request") whose
// children are, in order:
//
//	serve.http           loopback POST to the child snserve (answer checked)
//	imaging.decode       png.Decode + imaging.FromStdImage of the body
//	pipeline.extract     ExtractDescriptorsCtx on a warm context      (classify)
//	pipeline.match       Gallery.MatchIndexFor(kind).GoodMatchCounts  (classify)
//	pipeline.shard_scan  ShardedIndexFor(kind).GoodMatchCounts        (classify)
//	pipeline.classify    ShardedGallery.ClassifyStatsCtx              (classify)
//	pipeline.propose     ProposeCrops                                 (detect)
//	pipeline.hybrid      Hybrid.Classify, one span per crop           (detect)
//	serve.submit         Batcher.Submit / SubmitSceneWait on an in-process
//	                     Batcher; on detect its children are the crops
//	                     the batcher classifies (serve.batch_classify)
type replay struct {
	w   *workload
	sg  *pipeline.ShardedGallery
	tgt *target
	rec *recorder

	p       pipeline.Pipeline // the served pipeline
	spanned *spannedPipeline  // p wrapped for the in-process batcher (detect)
	b       *serve.Batcher
	ctx     *pipeline.ExtractCtx
	counts  []int32

	descriptors []float64 // per query
	pairs       []float64 // query descriptors x indexed rows, per query
	regions     []float64 // crops per scene
	serverMS    []float64 // server-reported time of each loopback POST
}

// spanRef names the span a batcher-side classification belongs to.
type spanRef struct{ req, id int }

// spannedPipeline records a span around every Classify the batcher
// makes. It is only used for non-descriptor pipelines: the batcher's
// sharded lane recognises *pipeline.Descriptor by type, which a wrapper
// would defeat.
type spannedPipeline struct {
	pipeline.Pipeline
	rec    *recorder
	parent atomic.Pointer[spanRef]
}

func (s *spannedPipeline) Classify(img *imaging.Image, g *pipeline.Gallery) pipeline.Prediction {
	ref := s.parent.Load()
	id := s.rec.begin("serve.batch_classify", ref.req, ref.id)
	defer s.rec.end(id)
	return s.Pipeline.Classify(img, g)
}

func newReplay(w *workload, sg *pipeline.ShardedGallery, tgt *target, rec *recorder) (*replay, error) {
	p, err := serve.ParsePipeline(w.pipeline, ratio)
	if err != nil {
		return nil, err
	}
	r := &replay{w: w, sg: sg, tgt: tgt, rec: rec, p: p, ctx: pipeline.NewExtractCtx(), counts: make([]int32, sg.G.Len())}
	bp := p
	if !w.hasDesc {
		r.spanned = &spannedPipeline{Pipeline: p, rec: rec}
		r.spanned.parent.Store(&spanRef{req: -1, id: -1})
		bp = r.spanned
	}
	// The server's batching knobs are snserve's defaults; Config's zero
	// values select the same ones.
	r.b = serve.NewBatcher(sg, bp, serve.Config{})
	return r, nil
}

func (r *replay) close() { r.b.Close() }

// run replays pool input i as request req; it returns the loopback
// POST's outcome.
func (r *replay) run(ctx context.Context, req, i int) (result, error) {
	in := r.tgt.pool[i]
	root := r.rec.begin("request", req, -1)
	defer r.rec.end(root)

	var res result
	r.rec.timed("serve.http", req, root, func() { res = r.tgt.send(ctx, i) })
	if res.ok {
		r.serverMS = append(r.serverMS, res.serverMS)
	}

	var img *imaging.Image
	var decErr error
	r.rec.timed("imaging.decode", req, root, func() {
		std, err := png.Decode(bytes.NewReader(in.body))
		if err != nil {
			decErr = err
			return
		}
		img = imaging.FromStdImage(std)
	})
	if decErr != nil {
		return res, fmt.Errorf("decode input %d: %w", i, decErr)
	}

	if r.w.hasDesc {
		params := pipeline.DefaultDescriptorParams()
		var q *features.Set
		r.rec.timed("pipeline.extract", req, root, func() {
			q = pipeline.ExtractDescriptorsCtx(img, r.w.descriptor, params, r.ctx)
		})
		mi := r.sg.G.MatchIndexFor(r.w.descriptor, params)
		r.rec.timed("pipeline.match", req, root, func() { mi.GoodMatchCounts(q, ratio, r.counts) })
		sx := r.sg.ShardedIndexFor(r.w.descriptor, params)
		r.rec.timed("pipeline.shard_scan", req, root, func() { sx.GoodMatchCounts(q, ratio, r.counts) })
		r.descriptors = append(r.descriptors, float64(q.Len()))
		r.pairs = append(r.pairs, float64(q.Len())*float64(mi.Flat().Len()))
		r.ctx.Reset() // q is invalid from here on

		var err error
		r.rec.timed("pipeline.classify", req, root, func() {
			_, _, err = r.sg.ClassifyStatsCtx(ctx, r.p, img)
		})
		if err != nil {
			return res, err
		}
		sub := r.rec.begin("serve.submit", req, root)
		_, err = r.b.Submit(ctx, img)
		r.rec.end(sub)
		return res, err
	}

	var crops []*imaging.Image
	r.rec.timed("pipeline.propose", req, root, func() {
		_, crops = pipeline.ProposeCrops(img, pipeline.DetectParams{MaxRegions: maxRegions})
	})
	r.regions = append(r.regions, float64(len(crops)))
	for _, c := range crops {
		r.rec.timed("pipeline.hybrid", req, root, func() { r.p.Classify(c, r.sg.G) })
	}
	sub := r.rec.begin("serve.submit", req, root)
	r.spanned.parent.Store(&spanRef{req: req, id: sub})
	_, err := r.b.SubmitSceneWait(ctx, crops)
	r.rec.end(sub)
	return res, err
}

// layerMetrics turns the recorded spans into the per-layer figures.
// lightMeanMS is the untraced light phase's mean client latency, the
// total the serial layer split has to explain.
func (r *replay) layerMetrics(lightMeanMS float64) map[string]float64 {
	spans := r.rec.snapshot()
	self := selfByName(spans)
	dur := map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], us(s.dur()))
	}
	p50 := func(name string) float64 { return zeroNaN(median(self[name])) }
	avg := func(name string) float64 { return zeroNaN(mean(dur[name])) }

	m := map[string]float64{
		"imaging.decode_us":      p50("imaging.decode"),
		"pipeline.extract_us":    p50("pipeline.extract"),
		"pipeline.descriptors":   zeroNaN(mean(r.descriptors)),
		"pipeline.match_us":      p50("pipeline.match"),
		"pipeline.match_pairs":   zeroNaN(mean(r.pairs)),
		"pipeline.shard_scan_us": p50("pipeline.shard_scan"),
		"pipeline.classify_us":   p50("pipeline.classify"),
		"pipeline.propose_us":    p50("pipeline.propose"),
		"pipeline.regions":       zeroNaN(mean(r.regions)),
		"pipeline.hybrid_us":     p50("pipeline.hybrid"),
	}
	var matchNS, pairs float64
	for i, d := range dur["pipeline.match"] {
		matchNS += d * 1e3
		pairs += r.pairs[i]
	}
	if pairs > 0 {
		m["pipeline.match_ns_per_pair"] = matchNS / pairs
	} else {
		m["pipeline.match_ns_per_pair"] = 0
	}

	// Serial path of one served request, as layer means (µs):
	// HTTP + decode + [extract + scan | propose + crops] + batcher.
	var compute, batcher float64
	if r.w.hasDesc {
		compute = avg("pipeline.extract") + avg("pipeline.shard_scan")
		batcher = avg("serve.submit") - avg("pipeline.classify")
	} else {
		// The submit span's self time is its wall time minus the union
		// of the crops the batcher classified inside it.
		batcher = zeroNaN(mean(self["serve.submit"]))
		compute = avg("pipeline.propose") + (avg("serve.submit") - batcher)
	}
	// The HTTP layer is what the client waited beyond the time the
	// server accounts for itself, so the sum below adds up independent
	// measurements and the remainder is time none of them explains.
	httpOver := avg("serve.http") - zeroNaN(mean(r.serverMS))*1e3
	m["serve.batcher_overhead_us"] = batcher
	m["serve.http_overhead_us"] = httpOver
	layers := avg("imaging.decode") + compute + batcher + httpOver
	m["trace.unattributed_pct"] = 100 * (lightMeanMS*1e3 - layers) / (lightMeanMS * 1e3)
	return m
}

// zeroNaN reports a layer that did not run on the workload as 0.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
