package pipeline

import (
	"math"
	"sync"
	"time"

	"snmatch/internal/features"
	"snmatch/internal/obs"
)

// MIHIndex is multi-index hashing over the flat index's word-packed
// binary rows (Norouzi et al.'s scheme, adapted to the per-view ratio
// test): every row is split into m disjoint substrings of SubstrBits
// bits, each keying one direct-addressed hash table. A query descriptor
// probes, per substring, every bucket within the substring Hamming
// radius; the union of bucket rows is its candidate set. By the
// pigeonhole principle any gallery row within Hamming distance
// m*(Radius+1)-1 of the query matches at least one substring within
// Radius, so near rows — the only ones that can win a ratio test at
// serving thresholds — are found without scanning the gallery.
//
// Candidates are verified with the exact HammingWords kernel and folded
// into per-view best/second-best exactly like the flat scan; a view
// whose candidate set holds fewer than two rows is skipped (no
// second-neighbour denominator — the same rule the flat scan applies to
// views with fewer than two rows). The probe only shortlists: every
// view that accumulates a non-zero approximate count is then re-scored
// exactly by the flat kernel over its full row block (verifyShortlist),
// so final counts are either the flat scan's number or zero and
// approximate recall is a question of shortlist membership, not score
// drift. At Radius >= SubstrBits every bucket would be probed, so the
// scan delegates to the flat kernel outright and is bit-identical to
// it.
//
// The index is immutable once built and safe for concurrent queries;
// per-query scratch is pooled.
type MIHIndex struct {
	ix     *DescriptorIndex
	params MIHParams

	bits uint // substring width
	m    int  // substrings per row
	full bool // Radius covers the whole substring: exact delegation

	// rowView maps a global row id to its view (only rows of views
	// with >= 2 rows are bucketed, so every bucketed id resolves).
	rowView []int32
	tables  []mihTable // one per substring position

	scratch sync.Pool // *mihScratch
}

// mihTable is one substring position's bucket table in CSR layout:
// bucket k holds ids[offsets[k]:offsets[k+1]], ascending row order.
type mihTable struct {
	offsets []int32
	ids     []int32
}

// NewMIHIndex builds the hashing backend over a binary flat index. It
// panics on a float index (buildMatchIndex routes those to the flat
// scan) and on parameters IndexSpec.Validate would reject.
func NewMIHIndex(ix *DescriptorIndex, p MIHParams) *MIHIndex {
	if !ix.Binary {
		panic("pipeline: MIH index requires binary descriptor rows")
	}
	p = p.withDefaults()
	if err := (IndexSpec{Kind: MIHKind, MIH: p}).Validate(); err != nil {
		panic(err.Error())
	}
	rowBits := ix.WordsPerRow * 64
	mi := &MIHIndex{
		ix:     ix,
		params: p,
		bits:   uint(p.SubstrBits),
		m:      rowBits / p.SubstrBits,
		full:   p.Radius >= p.SubstrBits,
	}
	if mi.full || ix.Len() == 0 {
		return mi
	}

	// Bucket only rows whose view can pass a ratio test (>= 2 rows);
	// the flat scan never counts the others either.
	n := ix.Len()
	mi.rowView = make([]int32, n)
	indexable := make([]int32, 0, n)
	for v := 0; v < ix.NumViews; v++ {
		start, end := ix.Starts[v], ix.Starts[v+1]
		if end-start < 2 {
			continue
		}
		for r := start; r < end; r++ {
			mi.rowView[r] = int32(v)
			indexable = append(indexable, int32(r))
		}
	}

	nBuckets := 1 << mi.bits
	wpr := ix.WordsPerRow
	cap32 := int32(math.MaxInt32)
	if p.BucketCap > 0 {
		cap32 = int32(p.BucketCap)
	}
	mi.tables = make([]mihTable, mi.m)
	sizes := make([]int32, nBuckets)
	for s := 0; s < mi.m; s++ {
		off := uint(s) * mi.bits
		clearInt32(sizes)
		for _, r := range indexable {
			key := features.SubBits(ix.Words[int(r)*wpr:(int(r)+1)*wpr], off, mi.bits)
			sizes[key]++
		}
		// Stop-buckets: a bucket beyond BucketCap is dropped wholesale —
		// its substring value is too common to discriminate, and its rows
		// remain reachable through their rarer substrings.
		kept := 0
		for k := 0; k < nBuckets; k++ {
			if sizes[k] > cap32 {
				sizes[k] = 0
			}
			kept += int(sizes[k])
		}
		t := mihTable{
			offsets: make([]int32, nBuckets+1),
			ids:     make([]int32, kept),
		}
		for k := 0; k < nBuckets; k++ {
			t.offsets[k+1] = t.offsets[k] + sizes[k]
		}
		fill := make([]int32, nBuckets)
		for _, r := range indexable {
			key := features.SubBits(ix.Words[int(r)*wpr:(int(r)+1)*wpr], off, mi.bits)
			if t.offsets[key+1] == t.offsets[key] {
				continue
			}
			t.ids[t.offsets[key]+fill[key]] = r
			fill[key]++
		}
		mi.tables[s] = t
	}
	return mi
}

// Flat implements MatchIndex.
func (mi *MIHIndex) Flat() *DescriptorIndex { return mi.ix }

// IndexKind implements MatchIndex.
func (mi *MIHIndex) IndexKind() IndexKind { return MIHKind }

// Substrings returns the number of hash tables (m disjoint substrings
// per row).
func (mi *MIHIndex) Substrings() int { return mi.m }

// mihScratch is one query's probe state: epoch-stamped row dedup and
// per-view best/second-best accumulators, recycled through the pool so
// steady-state probing allocates nothing.
type mihScratch struct {
	epoch    int32
	rowSeen  []int32
	viewMark []int32
	s1, s2   []int
	touched  []int32
}

func (mi *MIHIndex) getScratch() *mihScratch {
	if v := mi.scratch.Get(); v != nil {
		return v.(*mihScratch)
	}
	return &mihScratch{
		rowSeen:  make([]int32, mi.ix.Len()),
		viewMark: make([]int32, mi.ix.NumViews),
		s1:       make([]int, mi.ix.NumViews),
		s2:       make([]int, mi.ix.NumViews),
		touched:  make([]int32, 0, 64),
	}
}

// next opens a fresh epoch, wrapping safely before stamp overflow.
func (sc *mihScratch) next() {
	if sc.epoch == math.MaxInt32 {
		clearInt32(sc.rowSeen)
		clearInt32(sc.viewMark)
		sc.epoch = 0
	}
	sc.epoch++
	sc.touched = sc.touched[:0]
}

func clearInt32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}

// GoodMatchCounts implements MatchIndex.
//
//snmatch:noalloc
func (mi *MIHIndex) GoodMatchCounts(query *features.Set, ratio float64, counts []int32) {
	mi.GoodMatchCountsRange(query, ratio, counts, 0, mi.ix.NumViews, nil)
}

// probesPerQueryDescr is the number of bucket visits one query
// descriptor makes: every substring probes its own key plus all keys
// within the Hamming radius.
func (mi *MIHIndex) probesPerQueryDescr() int {
	per := 1
	b := int(mi.bits)
	if mi.params.Radius >= 1 {
		per += b
	}
	if mi.params.Radius >= 2 {
		per += b * (b - 1) / 2
	}
	return mi.m * per
}

// GoodMatchCountsRange implements MatchIndex: the flat scan's contract
// over the probed candidate sets. Views outside [v0, v1) are untouched,
// so sharded fan-out composes exactly as with the flat index. With a
// non-nil tr the probe phase books as match time and the exact
// shortlist re-scoring as verify time; the shortlist/probe histograms
// record just before verification.
//
//snmatch:noalloc
func (mi *MIHIndex) GoodMatchCountsRange(query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) {
	if mi.full {
		mi.ix.GoodMatchCountsRange(query, ratio, counts, v0, v1, tr)
		return
	}
	for i := v0; i < v1; i++ {
		counts[i] = 0
	}
	if query.Len() == 0 || mi.ix.Len() == 0 {
		return
	}
	if query.IsBinary() != mi.ix.Binary {
		panic("match: mixed descriptor representations")
	}
	qp := query.Pack().Packed
	if qp.WordsPerRow != mi.ix.WordsPerRow {
		panic("pipeline: query descriptor width does not match index")
	}

	pm := obsMetrics()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}

	radius := mi.params.Radius
	sc := mi.getScratch()
	for qi := 0; qi < qp.N; qi++ {
		q := qp.WordRow(qi)
		sc.next()
		for s := 0; s < mi.m; s++ {
			key := features.SubBits(q, uint(s)*mi.bits, mi.bits)
			mi.probe(sc, s, key, q, v0, v1)
			if radius >= 1 {
				for b := uint(0); b < mi.bits; b++ {
					mi.probe(sc, s, key^(1<<b), q, v0, v1)
				}
			}
			if radius >= 2 {
				for b1 := uint(0); b1 < mi.bits; b1++ {
					for b2 := b1 + 1; b2 < mi.bits; b2++ {
						mi.probe(sc, s, key^(1<<b1)^(1<<b2), q, v0, v1)
					}
				}
			}
		}
		// Fold the candidate 2-NN of every touched view through the
		// flat scan's exact ratio test. A single-candidate view keeps
		// its MaxInt second-best and is skipped: there is no
		// second-neighbour denominator to test against.
		for _, v := range sc.touched {
			s1, s2 := sc.s1[v], sc.s2[v]
			if s2 != math.MaxInt && float64(float32(s1)) < ratio*float64(float32(s2)) {
				counts[v]++
			}
		}
	}
	mi.scratch.Put(sc)
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageMatch, now.Sub(start))
		start = now
	}
	pm.recordScan(MIHKind, counts, v0, v1, qp.N*mi.probesPerQueryDescr())
	verifyShortlist(mi.ix, query, ratio, counts, v0, v1)
	if tr != nil {
		tr.Add(obs.StageVerify, time.Since(start))
	}
}

// probe folds one bucket's rows into the query's per-view running
// best/second-best, deduplicating rows across the m*probes bucket
// visits by epoch stamp.
func (mi *MIHIndex) probe(sc *mihScratch, s int, key uint64, q []uint64, v0, v1 int) {
	t := &mi.tables[s]
	wpr := mi.ix.WordsPerRow
	for _, id := range t.ids[t.offsets[key]:t.offsets[key+1]] {
		if sc.rowSeen[id] == sc.epoch {
			continue
		}
		sc.rowSeen[id] = sc.epoch
		v := mi.rowView[id]
		if int(v) < v0 || int(v) >= v1 {
			continue
		}
		d := features.HammingWords(q, mi.ix.Words[int(id)*wpr:(int(id)+1)*wpr])
		if sc.viewMark[v] != sc.epoch {
			sc.viewMark[v] = sc.epoch
			sc.s1[v], sc.s2[v] = d, math.MaxInt
			sc.touched = append(sc.touched, v) //lint:allow noalloc touched grows into pooled scratch capped at NumViews; capacity amortizes to zero growth at steady state
			continue
		}
		if d < sc.s1[v] {
			sc.s2[v], sc.s1[v] = sc.s1[v], d
		} else if d < sc.s2[v] {
			sc.s2[v] = d
		}
	}
}
