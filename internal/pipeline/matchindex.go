package pipeline

import (
	"fmt"
	"strings"

	"snmatch/internal/features"
	"snmatch/internal/obs"
)

// MatchIndex is the matching engine behind descriptor classification:
// given one query set it fills per-view good-match counts, the numbers
// classifyCounts turns into a prediction. The flat DescriptorIndex is
// the exact reference implementation; the approximate backends (MIH for
// Hamming-packed binary rows, IVF coarse quantization for float rows)
// implement the same contract over candidate subsets, and are required
// to degrade to bit-identical flat-scan results at their full-probe
// settings.
//
// GoodMatchCountsRange must write counts for exactly [v0, v1) with
// per-view results independent of the split, which is what lets
// ShardedIndex fan any backend out across workers and stay bit-identical
// to the unsharded scan.
type MatchIndex interface {
	// Flat returns the underlying exact index: the row storage every
	// backend verifies candidates against, the count-scratch pool, and
	// what snapshots persist.
	Flat() *DescriptorIndex
	// IndexKind reports which backend this is (for /healthz and logs).
	IndexKind() IndexKind
	// GoodMatchCounts fills counts for every view, untraced.
	GoodMatchCounts(query *features.Set, ratio float64, counts []int32)
	// GoodMatchCountsRange fills counts for the views in [v0, v1). A
	// non-nil tr receives the backend's elapsed time split into its
	// match (probe/scan) and verify (exact re-scoring) stages, and the
	// aggregate ANN histograms are fed; a nil tr records stage times
	// nowhere. tr accumulates with atomic adds, so the sharded fan-out's
	// concurrent workers share one trace — its match/verify stages then
	// read as CPU time, not wall time.
	GoodMatchCountsRange(query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace)
}

// IndexKind enumerates the matching index backends.
type IndexKind int

const (
	// ExactKind is the flat full scan: perfect recall, O(gallery rows)
	// per query descriptor.
	ExactKind IndexKind = iota
	// MIHKind is multi-index hashing over word-packed binary rows
	// (ORB): disjoint substrings of every row key hash buckets, queries
	// probe buckets within a substring Hamming radius, and candidates
	// are verified with the exact HammingWords kernel.
	MIHKind
	// IVFKind is inverted-file coarse quantization over either row
	// representation: deterministic seeded k-means (L2 over float rows;
	// k-majority Hamming over binary rows) partitions the rows into
	// lists stored as flat row-major blocks, and queries scan the
	// nprobe nearest lists with the exact distance kernels.
	IVFKind
)

// String names the backend as accepted by the -index flag.
func (k IndexKind) String() string {
	switch k {
	case ExactKind:
		return "exact"
	case MIHKind:
		return "mih"
	case IVFKind:
		return "ivf"
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// ParseIndexKind resolves an -index flag value.
func ParseIndexKind(s string) (IndexKind, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "exact", "flat":
		return ExactKind, nil
	case "mih":
		return MIHKind, nil
	case "ivf":
		return IVFKind, nil
	}
	return ExactKind, fmt.Errorf("pipeline: unknown index backend %q (want exact, mih or ivf)", s)
}

// MIHParams tunes the multi-index hashing backend. Zero values select
// the defaults.
type MIHParams struct {
	// SubstrBits is the substring width in bits: every row splits into
	// rowBits/SubstrBits disjoint substrings, each keying one hash
	// table. Must divide 64 and be at most 16 (the tables are
	// direct-addressed). Default 16.
	SubstrBits int
	// Radius is the per-substring Hamming probe radius: each query
	// substring probes every bucket within Radius bit flips. By the
	// pigeonhole principle a gallery row within Hamming distance
	// m*(Radius+1)-1 of the query (m substrings) is guaranteed to be a
	// candidate. 0, 1 or 2 (default 1); any value >= SubstrBits means
	// every bucket is probed — the exact full scan.
	Radius int
	// BucketCap, when positive, is a stop-bucket threshold: buckets
	// holding more than this many rows are dropped from their table. A
	// substring value shared by a large fraction of the gallery carries
	// little discriminative information — the analogue of a stop-word in
	// bag-of-words retrieval — and walking such buckets degrades the
	// probe toward a (random-access) full scan on heavy-tailed key
	// distributions. Rows in a stopped bucket stay reachable through
	// their rarer substrings. Off by default: on low-entropy descriptor
	// sets the informative neighbours themselves sit in the popular
	// buckets, and dropping them costs recall (see the ANN benchmarks) —
	// reach for ivf on such galleries instead.
	BucketCap int
}

func (p MIHParams) withDefaults() MIHParams {
	if p.SubstrBits == 0 {
		p.SubstrBits = 16
	}
	if p.Radius == 0 {
		p.Radius = 1
	}
	if p.Radius < 0 {
		p.Radius = 0
	}
	return p
}

// IVFParams tunes the inverted-file backend. Zero values select the
// defaults.
type IVFParams struct {
	// NLists is the number of coarse k-means centroids. 0 picks
	// ~2*sqrt(rows) clamped to [1, 1024].
	NLists int
	// NProbe is the number of nearest lists scanned per query
	// descriptor (default 8). NProbe >= NLists scans everything — the
	// exact full scan.
	NProbe int
	// Iters is the Lloyd iteration count of the (sampled, seeded)
	// k-means training run (default 6).
	Iters int
	// Seed seeds the deterministic k-means (default 1): equal seeds on
	// equal galleries build identical lists on every platform.
	Seed uint64
}

func (p IVFParams) withDefaults() IVFParams {
	if p.NProbe == 0 {
		p.NProbe = 8
	}
	if p.Iters == 0 {
		p.Iters = 6
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// IndexSpec is the per-gallery index configuration surface: which
// backend to build over each descriptor family's flat index, and its
// knobs. A backend that does not apply to a family's representation
// (MIH needs binary rows; IVF quantizes either representation) falls
// back to the exact flat scan for that family, so one spec covers a
// mixed SIFT+ORB gallery.
type IndexSpec struct {
	Kind IndexKind
	MIH  MIHParams
	IVF  IVFParams
}

// Validate rejects parameter combinations the builders cannot honour.
func (s IndexSpec) Validate() error {
	switch s.Kind {
	case ExactKind:
		return nil
	case MIHKind:
		p := s.MIH.withDefaults()
		if p.SubstrBits < 1 || p.SubstrBits > 16 || 64%p.SubstrBits != 0 {
			return fmt.Errorf("pipeline: mih substring width %d must divide 64 and be at most 16", p.SubstrBits)
		}
		if p.Radius > 2 && p.Radius < p.SubstrBits {
			return fmt.Errorf("pipeline: mih radius %d not supported (want 0-2, or >= %d for the exact full probe)", p.Radius, p.SubstrBits)
		}
		return nil
	case IVFKind:
		p := s.IVF.withDefaults()
		if p.NLists < 0 {
			return fmt.Errorf("pipeline: ivf nlists %d must be non-negative", p.NLists)
		}
		if p.NProbe < 1 {
			return fmt.Errorf("pipeline: ivf nprobe %d must be at least 1", p.NProbe)
		}
		return nil
	}
	return fmt.Errorf("pipeline: unknown index kind %d", int(s.Kind))
}

// String renders the spec for logs and /healthz.
func (s IndexSpec) String() string {
	switch s.Kind {
	case MIHKind:
		p := s.MIH.withDefaults()
		return fmt.Sprintf("mih(bits=%d,radius=%d)", p.SubstrBits, p.Radius)
	case IVFKind:
		p := s.IVF.withDefaults()
		nl := "auto"
		if p.NLists > 0 {
			nl = fmt.Sprintf("%d", p.NLists)
		}
		return fmt.Sprintf("ivf(nlists=%s,nprobe=%d)", nl, p.NProbe)
	}
	return "exact"
}

// verifyShortlist is the exact re-scoring phase shared by the
// approximate backends: every view in [v0, v1) holding a non-zero
// approximate count is re-scored with the flat kernel over its full row
// block, replacing the approximate count with the exact one. Runs of
// adjacent shortlisted views coalesce into single ranged calls, so the
// cost is one flat scan over just the shortlisted views' rows.
//
// The result is that counts[v] is either exactly the flat scan's count
// or zero — approximate probing only decides *which* views compete, not
// their scores. Shortlist membership depends only on the query and the
// view's own rows (candidate generation never looks across views), so
// sharded fan-out composes to the same counts as one unsharded call.
func verifyShortlist(ix *DescriptorIndex, query *features.Set, ratio float64, counts []int32, v0, v1 int) {
	for v := v0; v < v1; {
		if counts[v] == 0 {
			v++
			continue
		}
		end := v + 1
		for end < v1 && counts[end] > 0 {
			end++
		}
		ix.scanRange(query, ratio, counts, v, end)
		v = end
	}
}

// buildMatchIndex constructs the spec'd backend over a flat index.
// Backends that cannot apply — wrong representation, or an empty
// gallery — return the flat index itself, so callers always get a
// working MatchIndex.
func buildMatchIndex(ix *DescriptorIndex, spec IndexSpec) MatchIndex {
	if ix.Len() == 0 {
		return ix
	}
	switch spec.Kind {
	case MIHKind:
		if !ix.Binary {
			return ix
		}
		return NewMIHIndex(ix, spec.MIH)
	case IVFKind:
		return NewIVFIndex(ix, spec.IVF)
	}
	return ix
}
