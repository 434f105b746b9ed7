package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/pipeline"
)

// fixCRCV2 recomputes a mutated v2 structure stream's checksum.
func fixCRCV2(b []byte) {
	structLen := binary.LittleEndian.Uint64(b[offStructLen:])
	if structLen > uint64(len(b)-headerLenV2) {
		return
	}
	binary.LittleEndian.PutUint32(b[offStructCRC:], crc32.ChecksumIEEE(b[headerLenV2:headerLenV2+int(structLen)]))
}

// mustFailNotPanic asserts a decode of crafted bytes errors cleanly.
func mustFailNotPanic(t *testing.T, label string, raw []byte) {
	t.Helper()
	snap, err := Read(bytes.NewReader(raw))
	if err == nil && snap == nil {
		t.Fatalf("%s: nil snapshot without error", label)
	}
	if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
		t.Fatalf("%s: unexpected error class %v", label, err)
	}
}

// TestCraftedLengthBombs pins the decode-hardening fix: a file whose
// CRC is valid but whose length fields are inflated must fail the
// bounds check before any allocation sized from the wire value — not
// after a multi-GB make(). Each case rewrites one length in a valid
// snapshot and re-stamps the checksum, so only the count bound can
// reject it.
func TestCraftedLengthBombs(t *testing.T) {
	rawV2 := snapshotBytes(t)

	t.Run("v2-view-count", func(t *testing.T) {
		// Structure stream: name, dataset (u32-prefixed strings), size,
		// seed and the Hu blob offset (8 bytes each), then the view count.
		nameLen := int(binary.LittleEndian.Uint32(rawV2[headerLenV2:]))
		dsLen := int(binary.LittleEndian.Uint32(rawV2[headerLenV2+4+nameLen:]))
		nvOff := headerLenV2 + 4 + nameLen + 4 + dsLen + 8 + 8 + 8
		b := append([]byte(nil), rawV2...)
		if nv := binary.LittleEndian.Uint32(b[nvOff:]); nv == 0 || nv > 10000 {
			t.Fatalf("fixture layout changed: view count field reads %d", nv)
		}
		binary.LittleEndian.PutUint32(b[nvOff:], 0xFFFFFFF0)
		fixCRCV2(b)
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("view count bomb: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("v2-structure-bombs", func(t *testing.T) {
		structLen := int(binary.LittleEndian.Uint64(rawV2[offStructLen:]))
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 200; trial++ {
			b := append([]byte(nil), rawV2...)
			off := headerLenV2 + rng.Intn(structLen-4)
			binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFF0)
			fixCRCV2(b)
			mustFailNotPanic(t, "v2 u32 bomb", b)
		}
	})
	t.Run("v2-blob-ref-bombs", func(t *testing.T) {
		structLen := int(binary.LittleEndian.Uint64(rawV2[offStructLen:]))
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 200; trial++ {
			b := append([]byte(nil), rawV2...)
			off := headerLenV2 + rng.Intn(structLen-8)
			binary.LittleEndian.PutUint64(b[off:], rng.Uint64()) // offsets, counts, whatever it hits
			fixCRCV2(b)
			mustFailNotPanic(t, "v2 u64 bomb", b)
		}
	})
}

// TestRandomCorruptionSweep is the deterministic fuzz regression: byte
// flips, truncations and random tail garbage across both format
// must always yield a clean error (or, for flips the CRC
// cannot see semantics in, a well-formed snapshot) — never a panic or
// an out-of-bounds slice.
func TestRandomCorruptionSweep(t *testing.T) {
	raw := snapshotBytes(t)
	t.Run("v2", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 400; trial++ {
			b := append([]byte(nil), raw...)
			switch trial % 4 {
			case 0: // single byte flip anywhere
				b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			case 1: // truncation
				b = b[:rng.Intn(len(b))]
			case 2: // flip then re-stamp CRCs so the decoder sees it
				b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
				fixCRCV2(b)
			case 3: // random tail growth
				extra := make([]byte, 1+rng.Intn(64))
				rng.Read(extra)
				b = append(b, extra...)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("trial %d: decoder panicked: %v", trial, r)
					}
				}()
				snap, err := Read(bytes.NewReader(b))
				if err == nil {
					// A mutation the checksums were re-stamped over can
					// decode; the result must at least be usable.
					if snap == nil || snap.Gallery == nil {
						t.Fatalf("trial %d: nil snapshot without error", trial)
					}
				}
			}()
		}
	})
}

// FuzzRead hands the decoder to go's fuzzer, seeded with a valid file,
// copies re-stamped with an unsupported version, and truncations. The
// property is the sweep's: no panics, no runaway allocations from
// wire-controlled lengths.
func FuzzRead(f *testing.F) {
	g := pipeline.NewGallery(dataset.BuildSNS1(dataset.Config{Size: 24, Seed: 4}))
	g.PrepareDescriptors(pipeline.ORB, pipeline.DefaultDescriptorParams())
	var v2 bytes.Buffer
	if err := Write(&v2, &Snapshot{Name: "x", Gallery: g}); err != nil {
		f.Fatal(err)
	}
	v1 := append([]byte(nil), v2.Bytes()...)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	f.Add(v1)
	f.Add(v2.Bytes())
	f.Add(v1[:40])
	f.Add(v2.Bytes()[:headerLenV2])
	f.Add([]byte("SNSNAP\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err == nil && (snap == nil || snap.Gallery == nil) {
			t.Fatal("nil snapshot without error")
		}
	})
}
