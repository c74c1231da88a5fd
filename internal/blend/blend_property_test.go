package blend

import (
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/tensor"
)

// TestFuseDeterministicProperty: fusing the same input twice produces
// bit-identical caches and hidden states for every mode.
func TestFuseDeterministicProperty(t *testing.T) {
	m := model.NewRandom(testCfg, 41)
	f := func(seed int64, mode8 uint8) bool {
		in := makeInputSeed(m, 3, 8, 4, seed)
		opts := Options{
			Mode:           Mode(int(mode8) % 3),
			RecomputeRatio: 0.2,
		}
		a := Fuse(in, opts)
		b := Fuse(in, opts)
		for li := 0; li < testCfg.Layers; li++ {
			if tensor.MaxAbsDiff(a.Cache.K[li].Data, b.Cache.K[li].Data) != 0 {
				return false
			}
		}
		return tensor.MaxAbsDiff(a.Hidden.Data, b.Hidden.Data) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// makeInputSeed is makeInput without the testing.T dependency.
func makeInputSeed(m *model.Model, nChunks, chunkLen, suffixLen int, seed int64) Input {
	g := tensor.NewRNG(seed)
	in := Input{Model: m}
	for c := 0; c < nChunks; c++ {
		toks := make([]int, chunkLen)
		for i := range toks {
			toks[i] = g.Intn(m.Cfg.Vocab)
		}
		in.ChunkTokens = append(in.ChunkTokens, toks)
		in.Chunks = append(in.Chunks, m.Prefill(toks, 0, false).Cache)
	}
	suffix := make([]int, suffixLen)
	for i := range suffix {
		suffix[i] = g.Intn(m.Cfg.Vocab)
	}
	in.SuffixTokens = suffix
	return in
}

// TestRatioClampProperty: any ratio outside [0,1] behaves like its clamp
// and never panics.
func TestRatioClampProperty(t *testing.T) {
	m := model.NewRandom(testCfg, 43)
	in := makeInputSeed(m, 2, 8, 4, 44)
	f := func(r float64) bool {
		res := Fuse(in, Options{Mode: ModeBlend, RecomputeRatio: r})
		for li, n := range res.SelectedPerLayer {
			if n < 0 || n > res.SuffixStart {
				t.Logf("layer %d selected %d of %d", li, n, res.SuffixStart)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectedMonotoneInRatioProperty: a larger recompute ratio never
// selects fewer tokens on the final layer.
func TestSelectedMonotoneInRatioProperty(t *testing.T) {
	m := model.NewRandom(testCfg, 45)
	in := makeInputSeed(m, 3, 10, 4, 46)
	last := -1
	for _, r := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0} {
		res := Fuse(in, Options{Mode: ModeBlend, RecomputeRatio: r})
		n := res.SelectedPerLayer[testCfg.Layers-1]
		if n < last {
			t.Fatalf("ratio %v selected %d < previous %d", r, n, last)
		}
		last = n
	}
}

// TestFuseDoesNotMutateInputs: the chunk caches passed in must be left
// untouched by fusion (they belong to the shared KV store).
func TestFuseDoesNotMutateInputs(t *testing.T) {
	m := model.NewRandom(testCfg, 47)
	in := makeInputSeed(m, 3, 8, 4, 48)
	var before []*kvcache.Cache
	for _, c := range in.Chunks {
		before = append(before, c.Clone())
	}
	Fuse(in, Options{Mode: ModeBlend, RecomputeRatio: 0.3})
	Fuse(in, Options{Mode: ModeFullReuse})
	for i, c := range in.Chunks {
		for li := 0; li < testCfg.Layers; li++ {
			if tensor.MaxAbsDiff(c.K[li].Data, before[i].K[li].Data) != 0 ||
				tensor.MaxAbsDiff(c.V[li].Data, before[i].V[li].Data) != 0 {
				t.Fatalf("chunk %d cache mutated on layer %d", i, li)
			}
		}
		if c.BasePos != before[i].BasePos {
			t.Fatalf("chunk %d BasePos mutated", i)
		}
	}
}

// TestSuffixAlwaysComputed: whatever the ratio, every suffix position's KV
// in the fused cache must be non-zero on every layer (the query is always
// fresh).
func TestSuffixAlwaysComputed(t *testing.T) {
	m := model.NewRandom(testCfg, 49)
	in := makeInputSeed(m, 2, 8, 5, 50)
	for _, r := range []float64{0, 0.1, 1} {
		res := Fuse(in, Options{Mode: ModeBlend, RecomputeRatio: r})
		for li := 0; li < testCfg.Layers; li++ {
			for j := res.SuffixStart; j < len(res.Tokens); j++ {
				if tensor.L2(res.Cache.RowK(li, j)) == 0 {
					t.Fatalf("ratio %v: suffix token %d has zero K on layer %d", r, j, li)
				}
			}
		}
	}
}

// TestHKVDWithinContext: selected HKVD indices are always context
// positions, never suffix positions.
func TestHKVDWithinContext(t *testing.T) {
	m := model.NewRandom(testCfg, 51)
	in := makeInputSeed(m, 3, 9, 6, 52)
	res := Fuse(in, Options{Mode: ModeBlend, RecomputeRatio: 0.3})
	for li, set := range res.HKVD {
		for _, j := range set {
			if j < 0 || j >= res.SuffixStart {
				t.Fatalf("layer %d: HKVD index %d outside context [0,%d)", li, j, res.SuffixStart)
			}
		}
	}
}

// TestFuseLeavesChunkCachesByteIdentical: Fuse copies each chunk into the
// fused cache before re-rotating it, so the inputs keep every byte —
// including chunks whose BasePos already equals their offset and the
// DisableReposition ablation.
func TestFuseLeavesChunkCachesByteIdentical(t *testing.T) {
	m := model.NewRandom(testCfg, 51)
	in := makeInputSeed(m, 3, 8, 4, 52)
	// The second chunk was computed at its fused offset: no shift needed.
	in.Chunks[1] = m.Prefill(in.ChunkTokens[1], 8, false).Cache
	var before [][]byte
	for _, c := range in.Chunks {
		b, _ := c.MarshalBinary()
		before = append(before, b)
	}
	for _, opts := range []Options{
		{Mode: ModeBlend, RecomputeRatio: 0.3},
		{Mode: ModeBlend, RecomputeRatio: 0.3, DisableReposition: true},
		{Mode: ModeFullReuse},
		{Mode: ModeFullRecompute},
	} {
		Fuse(in, opts)
		for i, c := range in.Chunks {
			after, _ := c.MarshalBinary()
			if string(after) != string(before[i]) {
				t.Fatalf("%+v: chunk %d cache changed", opts, i)
			}
		}
	}
}

// TestFuseRepositionsLikeShiftedConcat: the single-allocation assembly
// loads exactly what cloning, shifting and concatenating the chunks did.
func TestFuseRepositionsLikeShiftedConcat(t *testing.T) {
	m := model.NewRandom(testCfg, 53)
	in := makeInputSeed(m, 3, 6, 0, 54)
	in.Chunks[2] = m.Prefill(in.ChunkTokens[2], 12, false).Cache
	for _, noRepo := range []bool{false, true} {
		var parts []*kvcache.Cache
		off := 0
		for _, cc := range in.Chunks {
			s := cc.Clone()
			if noRepo {
				s.BasePos = off
			} else {
				s.ShiftPositions(m.Rope, testCfg.KVHeads, testCfg.HeadDim, off)
			}
			parts = append(parts, s)
			off += cc.Tokens
		}
		want, _ := kvcache.Concat(parts...).MarshalBinary()
		res := Fuse(in, Options{Mode: ModeFullReuse, DisableReposition: noRepo})
		got, _ := res.Cache.MarshalBinary()
		if string(got) != string(want) {
			t.Fatalf("DisableReposition=%v: fused cache differs from shifted concatenation", noRepo)
		}
	}
}
