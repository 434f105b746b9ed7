// Package snapshot persists prepared recognition galleries: a versioned
// little-endian binary codec over every piece of state a gallery needs
// to classify without re-rendering or re-extracting — views (image,
// class, model, view id), Hu moments, colour histograms, the packed
// descriptor blocks of every extracted family with their keypoints, and
// the set of prepared flat-index kinds (the indexes themselves are
// rebuilt deterministically from the packed blocks on load, so the
// descriptor bytes are stored once). The contract is round-trip
// exactness: a loaded gallery produces bit-identical predictions to the
// gallery that was saved, for every pipeline.
//
// The format (version 2, see v2.go) separates the file into a small
// structure stream and an 8-byte-aligned blob region holding the large
// numeric payloads, so Map can alias the packed descriptor matrices
// straight off a read-only memory mapping with zero copies: loading a
// large gallery costs O(structure), not O(bytes). Files stamped with
// any other version are refused with ErrVersion.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snmatch/internal/fault"
	"snmatch/internal/features"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/pipeline"
)

// Version is the snapshot format version Write and Save produce and
// Read, Load and Map accept.
const Version = 2

var magic = [8]byte{'S', 'N', 'S', 'N', 'A', 'P', '\r', '\n'}

// Errors the loader distinguishes. ErrVersion is wrapped with the
// got/want pair; use errors.Is.
var (
	ErrBadMagic = errors.New("snapshot: bad magic (not a gallery snapshot)")
	ErrVersion  = errors.New("snapshot: unsupported format version")
	ErrCorrupt  = errors.New("snapshot: corrupt payload")
)

// descKinds fixes the on-disk descriptor family order.
var descKinds = []pipeline.DescriptorKind{pipeline.SIFT, pipeline.SURF, pipeline.ORB}

// Meta records the provenance of a persisted gallery: the dataset it
// was built from and the render parameters. Loaders validate it against
// their own configuration (Meta.Check) so a mismatched snapshot fails
// loudly instead of producing silently wrong predictions.
type Meta struct {
	Dataset string // dataset identifier, e.g. "sns1"
	Size    int    // render size in pixels
	Seed    uint64 // render seed
}

// Check compares this (loaded) provenance against the caller's
// expectation. Every field is compared — there are no skip sentinels,
// because 0 is a seed a user can legitimately pass — so callers must
// fill the complete expected Meta.
func (m Meta) Check(want Meta) error {
	if m.Dataset != want.Dataset {
		return fmt.Errorf("snapshot: gallery was built from dataset %q, this run needs %q", m.Dataset, want.Dataset)
	}
	if m.Size != want.Size {
		return fmt.Errorf("snapshot: gallery was rendered at size %d, this run needs %d", m.Size, want.Size)
	}
	if m.Seed != want.Seed {
		return fmt.Errorf("snapshot: gallery was rendered with seed %d, this run needs %d", m.Seed, want.Seed)
	}
	return nil
}

// Snapshot is a named, provenance-stamped prepared gallery — the unit
// the codec reads and writes.
type Snapshot struct {
	Name    string
	Meta    Meta
	Gallery *pipeline.Gallery
}

// Write serializes the snapshot in the current (v2) format. The gallery
// must be quiescent (no concurrent extraction); the binaries save only
// after preparation completes.
func Write(w io.Writer, s *Snapshot) error { return writeV2(w, s) }

// encodeIndexKinds records which flat-index kinds the gallery has
// prepared (the tail of the structure stream). The flat indexes are not
// serialized: NewDescriptorIndex is a pure, deterministic function of
// the per-view packed sets (including the prune decision, derived from
// the norm spread), so persisting them would double the descriptor
// bytes on disk. Only the prepared kinds are recorded; the loaders
// rebuild each index bit-identically from the restored sets.
func encodeIndexKinds(e *enc, g *pipeline.Gallery) {
	idx := g.Indexes()
	present := make([]pipeline.DescriptorKind, 0, len(descKinds))
	for _, k := range descKinds {
		if idx[k] != nil {
			present = append(present, k)
		}
	}
	e.u8(uint8(len(present)))
	for _, k := range present {
		e.u8(uint8(k))
	}
}

// Read deserializes a snapshot into heap memory. For the zero-copy
// path use Map.
func Read(r io.Reader) (*Snapshot, error) {
	if err := fault.Check(fault.SnapshotRead); err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	// Heap loads alias the read buffer too (one backing array, no
	// per-field copies); it just lives on the GC heap instead of a
	// mapping, so nothing is marked borrowed.
	return readV2(ensureAligned8(raw), true, false)
}

// decodeIndexKinds reads the recorded flat-index kind list.
func decodeIndexKinds(d *dec) []pipeline.DescriptorKind {
	var kinds []pipeline.DescriptorKind
	for n := int(d.u8()); n > 0 && d.err == nil; n-- {
		kinds = append(kinds, pipeline.DescriptorKind(d.u8()))
	}
	return kinds
}

// buildIndexes rebuilds the recorded flat indexes from the restored
// sets — a deterministic reconstruction of exactly what the saved
// gallery held. Every view's set of a recorded kind must be present and
// shape-consistent with the others: an inconsistency cannot have
// existed at save time, so it marks a corrupt (or crafted) file, which
// must surface as ErrCorrupt here rather than as a panic inside the
// index builder or an out-of-bounds scan at query time. regions, when
// non-nil, supplies the concatenated blob storage the v2 loader aliases
// the indexes onto.
func buildIndexes(views []pipeline.View, kinds []pipeline.DescriptorKind, regions map[pipeline.DescriptorKind]indexRegion) (map[pipeline.DescriptorKind]*pipeline.DescriptorIndex, error) {
	idx := map[pipeline.DescriptorKind]*pipeline.DescriptorIndex{}
	for _, k := range kinds {
		sets := make([]*features.Set, len(views))
		var (
			have   bool
			binary bool
			dim    int
			wpr    int
		)
		for i := range views {
			s := views[i].Desc[k]
			if s == nil {
				return nil, fmt.Errorf("%w: index kind %s recorded but view %d has no %s descriptors", ErrCorrupt, k, i, k)
			}
			sets[i] = s
			if s.Len() == 0 {
				continue
			}
			p := s.Packed
			if !have {
				have, binary, dim, wpr = true, s.IsBinary(), p.Dim, p.WordsPerRow
				continue
			}
			if s.IsBinary() != binary || p.Dim != dim || p.WordsPerRow != wpr {
				return nil, fmt.Errorf("%w: index kind %s mixes descriptor shapes (view %d)", ErrCorrupt, k, i)
			}
		}
		r := regions[k]
		idx[k] = pipeline.RestoreDescriptorIndex(sets, r.floats, r.words)
	}
	return idx, nil
}

// Save writes the snapshot to path atomically and durably: the bytes
// are flushed to a temp file, fsynced, renamed over path, and the
// parent directory is fsynced so the rename itself survives a crash —
// without the two syncs a post-rename crash can legally surface a
// zero-length or torn file under the final name. No temp file is left
// behind on any error path.
func Save(path string, s *Snapshot) error { return save(path, s, Write) }

func save(path string, s *Snapshot, write func(io.Writer, *Snapshot) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	tmp := f.Name()
	if err := write(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Flush file data before the rename: rename-then-crash must never
	// publish a name whose content is still in page cache only.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	// Durably record the rename in the directory itself.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is on disk.
// Windows has no directory fsync (and NTFS journals the rename); the
// call is skipped there rather than failing every Save.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads the snapshot at path into heap memory.
func Load(path string) (*Snapshot, error) {
	loadMetrics()
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	defer f.Close()
	snap, err := Read(f)
	if err == nil {
		recordLoad(loadObs.load, start)
	}
	return snap, err
}

// maxImageSide bounds a decoded view image's width and height. The
// gallery renders are small (tens to hundreds of pixels); the bound
// exists so a crafted width/height pair cannot overflow the 3*w*h pixel
// arithmetic and smuggle in an Image header whose dimensions exceed its
// pixel storage (an out-of-bounds read at query time). It is sized so
// 3*maxImageSide² still fits a 32-bit int — overflow must be impossible
// on every GOARCH, not just 64-bit ones.
const maxImageSide = 1 << 14

// restoreImage validates decoded image dimensions against their pixel
// payload and assembles the image.
// It fails the decoder and returns nil on mismatch.
func restoreImage(d *dec, w, h int, pix []byte) *imaging.Image {
	if w <= 0 || h <= 0 || w > maxImageSide || h > maxImageSide || len(pix) != 3*w*h {
		d.fail("image %dx%d with %d pixel bytes", w, h, len(pix))
		return nil
	}
	return &imaging.Image{W: w, H: h, Pix: pix}
}

// restoreHist validates a decoded histogram shape.
func restoreHist(d *dec, bins int, counts []float64) *histogram.Hist {
	if bins < 1 || bins > 256 || len(counts) != bins*bins*bins {
		d.fail("histogram bins %d with %d cells", bins, len(counts))
		return nil
	}
	return &histogram.Hist{Bins: bins, Counts: counts}
}

func b2u8(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// checkPackedShape validates a decoded packed block against its
// recorded representation flag and keypoint count. All arithmetic is
// division-based: the counts come off the wire as raw u32s, so products
// like N*Dim could overflow and alias a crafted length. Returns false
// (failing the decoder) on any mismatch.
func checkPackedShape(d *dec, p *features.Packed, isBinary bool, nk int) bool {
	ok := p.N == nk
	if isBinary {
		ok = ok && p.Dim == 0 && len(p.Floats) == 0 && len(p.Norms) == 0
		ok = ok && (p.RowBytes > 0) == (p.WordsPerRow > 0)
		ok = ok && p.WordsPerRow == (p.RowBytes+7)/8
		if p.WordsPerRow == 0 {
			ok = ok && len(p.Words) == 0
		} else {
			ok = ok && len(p.Words)%p.WordsPerRow == 0 && len(p.Words)/p.WordsPerRow == p.N
		}
	} else {
		ok = ok && p.RowBytes == 0 && p.WordsPerRow == 0 && len(p.Words) == 0
		if p.Dim == 0 {
			ok = ok && len(p.Floats) == 0 && len(p.Norms) == 0
		} else {
			ok = ok && len(p.Floats)%p.Dim == 0 && len(p.Floats)/p.Dim == p.N && len(p.Norms) == p.N
		}
	}
	if !ok {
		d.fail("packed block shape mismatch (N=%d dim=%d rowBytes=%d wpr=%d)", p.N, p.Dim, p.RowBytes, p.WordsPerRow)
	}
	return ok
}

// --- primitive little-endian encoder/decoder ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// count validates an element count read off the wire against the bytes
// that remain: a valid stream must still carry at least min encoded
// bytes per element, so a larger count is corrupt — and must fail here,
// BEFORE it reaches a make(), not after a crafted multi-GB allocation.
func (d *dec) count(n, min int) int {
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.b)-d.off)/min {
		d.fail("count %d exceeds remaining payload (%d bytes)", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}
func (d *dec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}
func (d *dec) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}
func (d *dec) i64() int64 { return int64(d.u64()) }
func (d *dec) str() string {
	n := int(d.u32())
	return string(d.take(n))
}
