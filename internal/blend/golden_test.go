package blend_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blend"
	"repro/internal/dataset"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

var updateNumericGolden = flag.Bool("update", false, "rewrite testdata/numeric_golden.json")

const numericGoldenPath = "testdata/numeric_golden.json"

// digest hashes the exact float bits of the numeric outputs, so a kernel
// change that moves any result by one ulp shows up as a changed digest.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		d.h.Write(b[:])
	}
}

func (d digest) f32(xs []float32) {
	var b [4]byte
	d.ints(len(xs))
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		d.h.Write(b[:])
	}
}

func (d digest) f64(xs []float64) {
	var b [8]byte
	d.ints(len(xs))
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d digest) matrix(m *tensor.Matrix) {
	if m == nil {
		d.ints(-1)
		return
	}
	d.ints(m.Rows, m.Cols)
	d.f32(m.Data)
}

func (d digest) cache(c *kvcache.Cache) {
	d.ints(c.NumLayers, c.KVDim, c.Tokens, c.BasePos)
	for i := 0; i < c.NumLayers; i++ {
		d.matrix(c.K[i])
		d.matrix(c.V[i])
	}
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func digestOf(fill func(d digest)) string {
	d := newDigest()
	fill(d)
	return d.sum()
}

// resultDigests hashes every numeric field of a fusion Result.
func resultDigests(res *blend.Result) map[string]string {
	return map[string]string{
		"cache":     digestOf(func(d digest) { d.cache(res.Cache) }),
		"hidden":    digestOf(func(d digest) { d.matrix(res.Hidden) }),
		"selected":  digestOf(func(d digest) { d.ints(res.SelectedPerLayer...) }),
		"deviation": digestOf(func(d digest) { d.f64(res.DeviationByToken) }),
		"hkvd": digestOf(func(d digest) {
			for _, l := range res.HKVD {
				d.ints(len(l))
				d.ints(l...)
			}
		}),
		"attn": digestOf(func(d digest) {
			d.ints(len(res.Attn))
			for _, a := range res.Attn {
				d.matrix(a)
			}
		}),
	}
}

// prefillDigests hashes a Prefill result and the greedy continuation
// Generate decodes from it (including the cache it grows).
func prefillDigests(m *model.Model, tokens []int, basePos, maxNew int) map[string]string {
	pr := m.Prefill(tokens, basePos, true)
	out := map[string]string{
		"cache":  digestOf(func(d digest) { d.cache(pr.Cache) }),
		"hidden": digestOf(func(d digest) { d.matrix(pr.Hidden) }),
		"attn": digestOf(func(d digest) {
			for _, a := range pr.Attn {
				d.matrix(a)
			}
		}),
	}
	gen := m.Generate(pr.Cache, pr.Hidden.Row(pr.Hidden.Rows-1), maxNew, nil)
	out["generate"] = digestOf(func(d digest) {
		d.ints(gen...)
		d.cache(pr.Cache)
	})
	return out
}

// qaInput is one musique-style RAG request on the constructed QA model.
func qaInput() blend.Input {
	m, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases = 1
	cfg.ChunksPerCase = 6
	cfg.FactsPerChunk = 6
	c := dataset.Generate(v, cfg).Cases[0]
	in := blend.Input{Model: m, SuffixTokens: c.Query}
	for _, ch := range c.Chunks {
		in.ChunkTokens = append(in.ChunkTokens, ch)
		in.Chunks = append(in.Chunks, m.Prefill(ch, 0, false).Cache)
	}
	return in
}

// randomInput is a small RAG request on the random Mistral stand-in, the
// configuration with GQA, a SwiGLU FFN and RMS normalisation.
func randomInput() blend.Input {
	m := model.NewRandom(model.Mistral7BSim, 3)
	g := tensor.NewRNG(4)
	in := blend.Input{Model: m}
	for c := 0; c < 3; c++ {
		toks := make([]int, 12)
		for i := range toks {
			toks[i] = g.Intn(m.Cfg.Vocab)
		}
		in.ChunkTokens = append(in.ChunkTokens, toks)
		in.Chunks = append(in.Chunks, m.Prefill(toks, 0, false).Cache)
	}
	in.SuffixTokens = make([]int, 5)
	for i := range in.SuffixTokens {
		in.SuffixTokens[i] = g.Intn(m.Cfg.Vocab)
	}
	return in
}

func fusedTokens(in blend.Input) []int {
	var toks []int
	for _, ct := range in.ChunkTokens {
		toks = append(toks, ct...)
	}
	return append(toks, in.SuffixTokens...)
}

func numericGoldenRuns() map[string]map[string]string {
	runs := map[string]map[string]string{}
	qa, rnd := qaInput(), randomInput()
	qaBlend := blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.15, SelectionLayer: qamodel.SelectionLayer}
	with := func(o blend.Options, f func(*blend.Options)) blend.Options { f(&o); return o }
	fuses := []struct {
		name string
		in   blend.Input
		opts blend.Options
	}{
		{"qa/blend", qa, qaBlend},
		{"qa/blend-attn", qa, with(qaBlend, func(o *blend.Options) { o.CollectAttention = true })},
		{"qa/full-reuse", qa, blend.Options{Mode: blend.ModeFullReuse, CollectAttention: true}},
		{"qa/full-recompute", qa, blend.Options{Mode: blend.ModeFullRecompute, CollectAttention: true}},
		{"qa/random", qa, with(qaBlend, func(o *blend.Options) { o.RandomSelection, o.RandomSeed = true, 7 })},
		{"qa/no-gradual", qa, with(qaBlend, func(o *blend.Options) { o.DisableGradualFilter = true })},
		{"qa/no-reposition", qa, with(qaBlend, func(o *blend.Options) { o.DisableReposition = true })},
		{"qa/full-reuse-no-suffix", blend.Input{Model: qa.Model, Chunks: qa.Chunks, ChunkTokens: qa.ChunkTokens},
			blend.Options{Mode: blend.ModeFullReuse}},
		{"mistral/blend-attn", rnd, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.3, CollectAttention: true}},
		{"mistral/full-reuse", rnd, blend.Options{Mode: blend.ModeFullReuse}},
		{"mistral/full-recompute", rnd, blend.Options{Mode: blend.ModeFullRecompute}},
		{"mistral/random", rnd, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.3, RandomSelection: true, RandomSeed: 5}},
		{"mistral/no-gradual", rnd, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.3, DisableGradualFilter: true}},
		{"mistral/no-reposition", rnd, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.3, DisableReposition: true}},
	}
	for _, f := range fuses {
		runs[f.name] = resultDigests(blend.Fuse(f.in, f.opts))
	}
	runs["qa/prefill-generate"] = prefillDigests(qa.Model, fusedTokens(qa), 0, 3)
	runs["mistral/prefill-generate"] = prefillDigests(rnd.Model, fusedTokens(rnd), 7, 4)
	return runs
}

// TestNumericGolden pins the exact float bits of every fusion mode, of
// Prefill and of Generate on the constructed QA model and on the random
// GQA/FFN/RMSNorm model. A kernel rewrite that claims bit-identical
// results must leave these digests unchanged; regenerate them (with
// -update) only for a deliberate numeric change, and say so.
func TestNumericGolden(t *testing.T) {
	got := numericGoldenRuns()
	if *updateNumericGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(numericGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(numericGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(numericGoldenPath)
	if err != nil {
		t.Fatalf("missing numeric golden (run with -update once): %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, test produced %d", len(want), len(got))
	}
	for name, fields := range got {
		for f, d := range fields {
			if want[name][f] != d {
				t.Errorf("%s: %s digest %s, golden %q", name, f, d[:12], want[name][f])
			}
		}
	}
}
