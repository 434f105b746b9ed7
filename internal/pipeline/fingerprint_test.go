package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/features"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/extract_fingerprints.json from the current extractors")

const fingerprintPath = "testdata/extract_fingerprints.json"

// hashSet appends one extraction to the running fingerprint: the
// keypoint count, every keypoint field and every descriptor component,
// all as exact bits in little-endian order.
func hashSet(buf []byte, s *features.Set) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Len()))
	for _, kp := range s.Keypoints {
		for _, v := range [...]float32{kp.X, kp.Y, kp.Size, kp.Angle, kp.Response} {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(kp.Octave)))
	}
	for _, row := range s.Float {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	for _, row := range s.Binary {
		buf = append(buf, row...)
	}
	return buf
}

// extractFingerprints hashes every SNS2 query's keypoints and
// descriptors per family and image size, keyed "SIFT/64" and so on.
func extractFingerprints() map[string]string {
	params := DefaultDescriptorParams()
	out := map[string]string{}
	ctx := NewExtractCtx()
	for _, size := range []int{64, 128} {
		queries := dataset.BuildSNS2(dataset.Config{Size: size, Seed: 1})
		for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
			h := sha256.New()
			var buf []byte
			for _, sm := range queries.Samples {
				buf = hashSet(buf[:0], ExtractDescriptorsCtx(sm.Image, kind, params, ctx))
				h.Write(buf)
				ctx.Reset()
			}
			out[kind.String()+"/"+itoa(size)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return out
}

// TestExtractFingerprints pins SIFT, SURF and ORB extraction over the
// SNS2 queries at 64 and 128 px to checked-in SHA-256 fingerprints, so
// a kernel rewrite that is bit-exact against today's sibling path is
// also checked against the past. Regenerate with -update only when a
// change alters extraction output on purpose.
//
// The fingerprints are amd64 values: Go may fuse x*y+z into one FMA on
// other architectures (arm64, ppc64le, s390x, riscv64), which rounds
// once instead of twice and legitimately changes the low bits.
func TestExtractFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned to amd64, where Go never fuses x*y+z into FMA; skipping on %s", runtime.GOARCH)
	}
	got := extractFingerprints()
	if *updateFingerprints {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(fingerprintPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", fingerprintPath)
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(fingerprintPath))
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", fingerprintPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, extraction produced %d", fingerprintPath, len(want), len(got))
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s fingerprint = %s, want %s", key, sum, want[key])
		}
	}
}
