package pipeline

import (
	"context"
	"sync"
	"time"

	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/obs"
)

// QueryStats carries per-query serving timings alongside a Prediction.
// Match and Verify are populated only while pipeline instrumentation is
// on (EnableObs); on a sharded gallery they are CPU time summed across
// the shard workers, not wall time.
type QueryStats struct {
	Extract time.Duration // descriptor extraction (PNG-decoded image -> packed query set)
	Match   time.Duration // index scan / approximate probe
	Verify  time.Duration // approximate backend's exact shortlist re-scoring
}

// Descriptor is the §3.3 pipeline: extract SIFT, SURF or ORB features
// from the query, match against the gallery-level flat descriptor index
// (DescriptorIndex), apply Lowe's ratio test, and predict the view with
// the most surviving matches. The paper's reported configuration uses
// ratio 0.5.
//
// Extraction runs on pooled per-worker contexts (ExtractCtx): Classify
// checks a context out of the pipeline's pool, extracts into it, and
// recycles it after the scan, so the warm query path performs no heap
// allocation from grayscale conversion to the flat-index counts.
type Descriptor struct {
	Kind   DescriptorKind
	Ratio  float64 // ratio-test threshold (paper tests 0.75 and 0.5)
	Params DescriptorParams

	// ctxs pools extraction contexts across concurrent Classify calls:
	// every RunParallel worker, batcher lane and serving request checks
	// a private context out per query and returns it warmed, so one
	// shared pipeline instance serves any degree of concurrency with
	// zero steady-state allocation. (The pipeline is stateless with
	// respect to the query stream, so no Forker clone is needed — the
	// pool is the per-worker context mechanism.)
	ctxs sync.Pool
}

// NewDescriptor builds the pipeline with default extractor parameters.
func NewDescriptor(kind DescriptorKind, ratio float64) *Descriptor {
	return &Descriptor{Kind: kind, Ratio: ratio, Params: DefaultDescriptorParams()}
}

// Name implements Pipeline.
func (p *Descriptor) Name() string { return p.Kind.String() }

// getCtx checks an extraction context out of the pool, creating one
// when the pool is empty.
func (p *Descriptor) getCtx() *ExtractCtx {
	if c, ok := p.ctxs.Get().(*ExtractCtx); ok {
		if pm := obsMetrics(); pm != nil {
			pm.ctxHits.Inc()
			pm.ctxPooled.Add(-int64(c.arena.Footprint()))
		}
		return c
	}
	if pm := obsMetrics(); pm != nil {
		pm.ctxMisses.Inc()
	}
	return NewExtractCtx()
}

// maxPooledCtxBytes caps the arena footprint a context may carry back
// into the pool. Arenas never shrink, so without the cap one oversized
// query would pin its high-water working set in every pooled context
// for the life of the process (the warm path allocates nothing, so GC
// — the only thing that drains a sync.Pool — rarely gets a reason to
// run). 128 MiB comfortably holds the pyramids of ~512px queries;
// anything beyond is served correctly but its context is dropped.
const maxPooledCtxBytes = 128 << 20

// putCtx recycles the context's buffers and returns it to the pool,
// unless an oversized query inflated it past maxPooledCtxBytes — then
// it is dropped for GC and the next query builds a fresh one.
// Everything the context's arena backed — including the query set the
// last extraction returned — is invalid afterwards.
func (p *Descriptor) putCtx(c *ExtractCtx) {
	c.Reset()
	pm := obsMetrics()
	if c.arena.Footprint() > maxPooledCtxBytes {
		if pm != nil {
			pm.ctxDrops.Inc()
		}
		return
	}
	if pm != nil {
		// Approximate by design: GC drains the pool without notice, so
		// the gauge can read high until the next checkout cycle.
		pm.ctxPooled.Add(int64(c.arena.Footprint()))
	}
	p.ctxs.Put(c)
}

// classifyOn is the single copy of the pooled query protocol — context
// checkout, timed extraction, count scan over the given sharded view of
// the gallery's matching index, recycle — shared by Descriptor.Classify
// (one whole-index shard) and ShardedGallery.ClassifyStatsCtx (the
// gallery's shard split) so the checkout discipline cannot drift
// between them.
// The stage trace rides the pooled context (never a fresh heap object):
// with instrumentation on, extraction and the scan's match/verify split
// land in ctx.Trace and surface through QueryStats; with it off the
// backends get a nil trace and skip their clocks entirely.
//
// ctx is the request deadline: cancellation checkpoints sit between
// the stages (before extraction, before the scan, and before every
// shard's scan), so an expired request stops burning CPU at the next
// stage boundary instead of running to completion. The returned error
// is the context's; a non-nil error means the prediction was not
// computed. Every checkpoint is a plain ctx.Err() call, so the warm
// path stays allocation-free.
func (p *Descriptor) classifyOn(ctx context.Context, img *imaging.Image, g *Gallery, sx *ShardedIndex) (Prediction, QueryStats, error) {
	if err := ctxErr(ctx); err != nil {
		return Prediction{}, QueryStats{}, err
	}
	c := p.getCtx()
	var tr *obs.Trace
	if obsMetrics() != nil {
		tr = &c.Trace
		tr.Reset()
	}
	start := time.Now() //lint:allow determinism feeds QueryStats.Extract timing only; predictions never read the clock
	q := ExtractDescriptorsCtx(img, p.Kind, p.Params, c)
	stats := QueryStats{Extract: time.Since(start)}
	tr.Set(obs.StageExtract, stats.Extract)
	pred, err := classifyCounts(ctx, g, sx, q, p.Ratio, tr)
	stats.Match = tr.Get(obs.StageMatch)
	stats.Verify = tr.Get(obs.StageVerify)
	p.putCtx(c)
	return pred, stats, err
}

// Classify implements Pipeline. The per-view good-match counts come
// from one scan of the gallery's matching index (the backend its
// IndexSpec selects, flat by default) per query descriptor; the count
// scratch is pooled, so steady-state matching allocates nothing per
// query. An unprepared gallery builds its index on first use through
// the mutex-guarded cache, so concurrent Classify calls against a
// shared gallery are safe. For per-query timings or a request deadline
// use ShardedGallery.ClassifyStatsCtx.
func (p *Descriptor) Classify(img *imaging.Image, g *Gallery) Prediction {
	mi := g.MatchIndexFor(p.Kind, p.Params)
	whole := ShardedIndex{mi: mi, ix: mi.Flat()} // no spans: one scan over every view
	pred, _, _ := p.classifyOn(context.Background(), img, g, &whole)
	return pred
}

// ctxErr is the stage-boundary cancellation checkpoint: nil-context
// safe and allocation-free (Err returns preallocated sentinel errors).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// classifyCounts runs one good-match-count fill over pooled scratch and
// selects the winning view, keeping the first-best tie-break and Score
// semantics in one place.
//
// The scan honours ctx before every shard's scan (skipping the rest
// once expired). A non-nil error means the counts are incomplete and no
// prediction is returned — a partially-scanned gallery must never
// masquerade as a result. The shard-scan fault point fires inside the
// fan-out; since a count fill has no error return, an armed error
// surfaces as a panic for the per-request recovery to convert (latency
// rules just stretch the scan in place).
//
//snmatch:noalloc
func classifyCounts(ctx context.Context, g *Gallery, sx *ShardedIndex, q *features.Set, ratio float64, tr *obs.Trace) (Prediction, error) {
	countsPtr := sx.ix.getCounts()
	counts := *countsPtr
	if err := sx.goodMatchCountsCtx(ctx, q, ratio, counts, tr); err != nil {
		sx.ix.putCounts(countsPtr)
		return Prediction{}, err
	}
	best := Prediction{Index: -1, Score: -1}
	//lint:allow ctxcheckpoint bounded argmax over per-view counts runs in microseconds; the scan that filled counts already honoured ctx
	for i := range counts {
		if score := float64(counts[i]); score > best.Score {
			best = Prediction{Class: g.ClassOf(i), Index: i, Score: score}
		}
	}
	sx.ix.putCounts(countsPtr)
	return best, nil
}

// Prepare implements Preparer: extracting every gallery descriptor and
// building the flat index up front across the pool keeps lock traffic
// and one-shot index construction out of the per-query loop.
func (p *Descriptor) Prepare(g *Gallery, workers int) {
	g.PrepareDescriptorsWorkers(p.Kind, p.Params, workers)
}
