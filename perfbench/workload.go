package main

import (
	"bytes"
	"fmt"
	"image/png"
	"time"

	"snmatch/internal/dataset"
	"snmatch/internal/imaging"
	"snmatch/internal/pipeline"
	"snmatch/internal/rng"
	"snmatch/internal/serve/snapshot"
	"snmatch/internal/synth"
)

// workload is one traffic mix: a fixed gallery served by snserve, a pool
// of request bodies drawn from the workload seed, and the fixed rates it
// is driven at. The rates and limits are repeated in BENCHMARK.json's
// "why" lines; TestBenchmarkJSONMatchesWorkloads keeps the two equal.
type workload struct {
	name     string
	endpoint string // "/classify" or "/detect"
	pipeline string // snserve ?pipeline= value
	// descriptor is the family prepared for the gallery; detect-scene
	// (hybrid) prepares none and sets hasDesc false.
	descriptor pipeline.DescriptorKind
	hasDesc    bool

	light, heavy float64       // offered rates, requests per second
	limit        time.Duration // limit on the p95 latency (max_rps search)

	meta    snapshot.Meta
	gallery func() *dataset.Set
	// inputs returns the timed request pool in the seed's order.
	inputs func(seed uint64) ([]input, error)
	// evalInputs returns the fixed pool accuracy is scored on; it is
	// served once, serially, before timing (it also warms the server).
	evalInputs func() ([]input, error)
}

// input is one request body with what the benchmark knows about it.
type input struct {
	body []byte
	img  *imaging.Image // the body decoded exactly as snserve decodes it
	// Ground truth: the class of a classify query, or a scene's objects.
	class   synth.Class
	objects []synth.SceneObject
}

// The serving flags every workload boots snserve with (other flags stay
// at their defaults).
const (
	serveShards = 2
	serveIndex  = "exact"
	ratio       = 0.5 // snserve's default -ratio
	maxRegions  = 32  // snserve's default -max-regions
)

var workloads = []*workload{
	{
		name:       "classify-sift",
		endpoint:   "/classify",
		pipeline:   "sift",
		descriptor: pipeline.SIFT,
		hasDesc:    true,
		light:      35,
		heavy:      85,
		limit:      50 * time.Millisecond,
		meta:       snapshot.Meta{Dataset: "sns1", Size: 64, Seed: 1},
		gallery:    func() *dataset.Set { return dataset.BuildSNS1(dataset.Config{Size: 64, Seed: 1}) },
		inputs: func(seed uint64) ([]input, error) {
			return sampleInputs(seed, dataset.BuildSNS2(dataset.Config{Size: 64, Seed: 1}))
		},
	},
	{
		name:     "detect-scene",
		endpoint: "/detect",
		pipeline: "hybrid",
		light:    30,
		heavy:    85,
		limit:    100 * time.Millisecond,
		meta:     snapshot.Meta{Dataset: "sns1", Size: 64, Seed: 1},
		gallery:  func() *dataset.Set { return dataset.BuildSNS1(dataset.Config{Size: 64, Seed: 1}) },
		inputs: func(seed uint64) ([]input, error) {
			return sceneInputs(rng.New(seed).Split("detect-scene"), timedScenes)
		},
		evalInputs: func() ([]input, error) {
			return sceneInputs(rng.New(evalSceneSeed).Split("detect-scene"), evalScenes)
		},
	},
}

// Scene pools. The timed pool's content follows the workload seed; the
// accuracy pool is fixed, so acc is one deterministic number per build
// and a change that costs accuracy reads as a regression on every seed.
const (
	timedScenes   = 48
	evalScenes    = 64
	evalSceneSeed = 20190326
)

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// eval returns the pool accuracy is scored on: the fixed scene pool for
// detect-scene, the full query set for the classify workloads (the seed
// only orders it there, so the score is the same on every seed).
func (w *workload) eval(timed []input) ([]input, error) {
	if w.evalInputs != nil {
		return w.evalInputs()
	}
	return timed, nil
}

// encode PNG-encodes img and decodes it back the way snserve does.
func encode(img *imaging.Image) (input, error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, img.ToStdImage()); err != nil {
		return input{}, fmt.Errorf("encode png: %w", err)
	}
	std, err := png.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return input{}, fmt.Errorf("decode png: %w", err)
	}
	return input{body: buf.Bytes(), img: imaging.FromStdImage(std)}, nil
}

// sampleInputs encodes every sample of a query set, in the seed's order.
func sampleInputs(seed uint64, s *dataset.Set) ([]input, error) {
	out := make([]input, 0, s.Len())
	for _, sm := range s.Samples {
		in, err := encode(sm.Image)
		if err != nil {
			return nil, err
		}
		in.class = sm.Class
		out = append(out, in)
	}
	r := rng.New(seed).Split("query-order")
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// sceneInputs composes n cluttered 320x240 scenes of three objects each.
func sceneInputs(r *rng.RNG, n int) ([]input, error) {
	out := make([]input, 0, n)
	for i := 0; i < n; i++ {
		classes := make([]synth.Class, 3)
		for k := range classes {
			classes[k] = synth.AllClasses[r.Intn(len(synth.AllClasses))]
		}
		sc := synth.ComposeSceneP(synth.SceneParams{
			W: 320, H: 240,
			Seed:       r.Uint64(),
			Classes:    classes,
			Clutter:    2,
			NoiseSigma: 4,
		})
		in, err := encode(sc.Image)
		if err != nil {
			return nil, err
		}
		in.objects = sc.Objects
		out = append(out, in)
	}
	return out, nil
}
