package pipeline

import (
	"context"
	"sync"

	"snmatch/internal/fault"
	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/obs"
	"snmatch/internal/parallel"
)

// ShardedIndex splits a matching index into contiguous view ranges at
// the flat index's Starts boundaries, so one query can be scanned by
// several workers at once. Shards never cut through a view: the
// within-view 2-NN search and ratio test are evaluated by exactly one
// shard with exactly the arithmetic of the unsharded scan, and every
// shard writes a disjoint range of the shared per-view count buffer —
// so sharded results are bit identical to the unsharded index at every
// shard count. This holds for any MatchIndex backend, exact or
// approximate: GoodMatchCountsRange's contract is per-view results
// independent of the [v0, v1) split.
//
// Shard boundaries are balanced by descriptor rows (the scan cost), not
// by view count: galleries with uneven views per class still split into
// near-equal work.
type ShardedIndex struct {
	mi    MatchIndex
	ix    *DescriptorIndex
	spans []parallel.Span // non-empty view ranges partitioning [0, NumViews)
}

// NewShardedIndex shards mi into at most `shards` row-balanced view
// ranges (shards <= 1 keeps the whole index as one shard; a shard count
// beyond the view count degrades to one view per shard).
func NewShardedIndex(mi MatchIndex, shards int) *ShardedIndex {
	ix := mi.Flat()
	sx := &ShardedIndex{mi: mi, ix: ix}
	nv := ix.NumViews
	if shards < 1 {
		shards = 1
	}
	if shards > nv {
		shards = nv
	}
	if nv == 0 || shards <= 1 {
		if nv > 0 {
			sx.spans = []parallel.Span{{Start: 0, End: nv}}
		}
		return sx
	}
	// Cut s (1 <= s < shards) lands on the first view whose start row
	// reaches the s-th row quantile; Starts is nondecreasing, so the
	// bounds are too, and together with 0 and NumViews they partition
	// the view range. Coinciding cuts (a view larger than a quantile)
	// collapse to fewer, still-disjoint shards.
	rows := ix.Len()
	bounds := make([]int, 0, shards+1)
	bounds = append(bounds, 0)
	v := 0
	for s := 1; s < shards; s++ {
		target := rows * s / shards
		for v < nv && ix.Starts[v] < target {
			v++
		}
		bounds = append(bounds, v)
	}
	bounds = append(bounds, nv)
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i+1] > bounds[i] {
			sx.spans = append(sx.spans, parallel.Span{Start: bounds[i], End: bounds[i+1]})
		}
	}
	return sx
}

// NumShards returns the number of non-empty shards.
func (sx *ShardedIndex) NumShards() int { return len(sx.spans) }

// Spans returns a copy of the shard view ranges.
func (sx *ShardedIndex) Spans() []parallel.Span {
	out := make([]parallel.Span, len(sx.spans))
	copy(out, sx.spans)
	return out
}

// GoodMatchCounts fills the per-view good-match counts exactly like the
// wrapped backend's GoodMatchCounts, scanning the shards concurrently on
// the worker pool (one worker per shard). counts must have NumViews
// entries and is overwritten.
//
//snmatch:noalloc
func (sx *ShardedIndex) GoodMatchCounts(query *features.Set, ratio float64, counts []int32) {
	sx.goodMatchCountsCtx(context.Background(), query, ratio, counts, nil)
}

// goodMatchCountsCtx is the one fan-out: every shard worker re-checks
// ctx before scanning its span and skips the scan once the deadline has
// expired, so a cancelled request stops burning scan CPU at the next
// shard boundary instead of finishing the whole gallery. The shard-scan
// fault point fires per shard (latency rules stretch one shard's scan;
// error/panic rules panic out of the fan-out for the per-request
// recovery). Every shard worker adds its own elapsed match/verify time
// into tr (Trace adds are atomic), so on a multi-shard scan those
// stages read as CPU time summed across workers, not wall time. A
// ShardedIndex without spans scans every view in one call. A non-nil
// return means at least one shard was skipped and counts are
// incomplete — callers must discard them.
//
//snmatch:noalloc
func (sx *ShardedIndex) goodMatchCountsCtx(ctx context.Context, query *features.Set, ratio float64, counts []int32, tr *obs.Trace) error {
	// Local copies keep sx itself out of the fan-out closure, so the
	// whole-index view Descriptor.Classify builds stays on its stack.
	mi, spans := sx.mi, sx.spans
	if len(spans) <= 1 {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if ferr := fault.Check(fault.ShardScan); ferr != nil {
			panic(ferr)
		}
		mi.GoodMatchCountsRange(query, ratio, counts, 0, sx.ix.NumViews, tr)
		return nil
	}
	// Build the packed mirror before the fan-out shares it.
	query.Pack()
	parallel.ForEach(len(spans), len(spans), func(s int) { //lint:allow noalloc one fan-out closure per sharded scan, amortized over the shards it launches; the flat path stays 0 allocs/op
		if ctxErr(ctx) != nil {
			return // deadline expired mid-fan-out; leave the span unscanned
		}
		if ferr := fault.Check(fault.ShardScan); ferr != nil {
			panic(ferr) // re-panicked in the submitting goroutine by parallel.run
		}
		mi.GoodMatchCountsRange(query, ratio, counts, spans[s].Start, spans[s].End, tr)
	})
	return ctxErr(ctx)
}

// ShardedGallery pairs a prepared Gallery with per-kind sharded indexes,
// the unit the serving registry hands out: descriptor queries fan out
// across the shards for low latency, every other pipeline classifies
// against the wrapped gallery unchanged.
type ShardedGallery struct {
	G      *Gallery
	Shards int // requested shard count (<= 1 disables the fan-out)

	mu      sync.RWMutex
	sharded map[DescriptorKind]*ShardedIndex
}

// NewShardedGallery wraps g for sharded serving.
func NewShardedGallery(g *Gallery, shards int) *ShardedGallery {
	if shards < 1 {
		shards = 1
	}
	return &ShardedGallery{G: g, Shards: shards, sharded: map[DescriptorKind]*ShardedIndex{}}
}

// ShardedIndexFor returns the sharded view of the gallery's matching
// index for the given kind — the backend the gallery's IndexSpec
// selects — building (and caching) both on first use. Like the flat
// index cache it is safe under concurrent Classify traffic: the split
// is a pure function of the index, so racing builders agree. A cached
// shard set is rebuilt when the gallery's backend has changed under it
// (SetIndexSpec after serving started).
func (s *ShardedGallery) ShardedIndexFor(kind DescriptorKind, p DescriptorParams) *ShardedIndex {
	s.mu.RLock()
	sx := s.sharded[kind]
	s.mu.RUnlock()
	if sx != nil && sx.mi == s.G.MatchIndexFor(kind, p) {
		return sx
	}
	sx = NewShardedIndex(s.G.MatchIndexFor(kind, p), s.Shards)
	s.mu.Lock()
	if cur := s.sharded[kind]; cur != nil && cur.mi == sx.mi {
		sx = cur
	} else {
		s.sharded[kind] = sx
	}
	s.mu.Unlock()
	return sx
}

// ClassifyStatsCtx routes one query through the sharded engine under a
// request deadline and reports its timings. Descriptor pipelines
// extract once on a pooled context (zero steady-state heap work), scan
// all shards in parallel and check ctx between extraction and the scan
// and before every shard's scan; every other pipeline runs its ordinary
// single-threaded Classify after one ctx check at entry (its
// classification is a single unsliceable pass) and reports no timings.
// Predictions are bit-identical to the unsharded pipeline at every
// shard count. A non-nil error is the context's, and means no
// prediction was computed.
func (s *ShardedGallery) ClassifyStatsCtx(ctx context.Context, p Pipeline, img *imaging.Image) (Prediction, QueryStats, error) {
	d, ok := p.(*Descriptor)
	if !ok {
		if err := ctxErr(ctx); err != nil {
			return Prediction{}, QueryStats{}, err
		}
		return p.Classify(img, s.G), QueryStats{}, nil
	}
	return d.classifyOn(ctx, img, s.G, s.ShardedIndexFor(d.Kind, d.Params))
}
