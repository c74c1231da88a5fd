package qamodel

import (
	"testing"

	"repro/internal/blend"
	"repro/internal/kvcache"
)

func concat(seqs ...[]int) []int {
	var out []int
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

func TestVocabBasics(t *testing.T) {
	_, v := Build()
	if v.Size() < 40 {
		t.Fatalf("vocab too small: %d", v.Size())
	}
	if v.Period != 0 {
		t.Fatal("token 0 must be the period (failure readout)")
	}
	if len(v.Entities) != E {
		t.Fatalf("want %d entities, got %d", E, len(v.Entities))
	}
	if v.EntityCode(v.Entities[5]) != 5 {
		t.Fatal("entity code mapping wrong")
	}
	if v.EntityCode(v.Period) != -1 {
		t.Fatal("non-entity must have code -1")
	}
	if v.Name(v.Entities[0]) != "alice" || v.Name(-1) != "<unk>" {
		t.Fatal("Name lookup wrong")
	}
}

func TestBuildDeterministic(t *testing.T) {
	m1, _ := Build()
	m2, _ := Build()
	for li := range m1.Layer {
		for i, x := range m1.Layer[li].Wq.Data {
			if m2.Layer[li].Wq.Data[i] != x {
				t.Fatal("Build must be deterministic")
			}
		}
	}
}

func TestGatherLayerCollectsFactFields(t *testing.T) {
	m, v := Build()
	alice, bob := v.Entities[0], v.Entities[1]
	relB := v.RelB[0]
	// "bob based-in alice ." : based-in(alice) = bob.
	toks := v.Fact(bob, relB, alice)
	res := m.Prefill(toks, 0, false)
	subj := res.Hidden.Row(2) // alice

	gotVal, mag := fieldArgmax(subj, offSCVal, E)
	if gotVal != v.EntityCode(bob) || mag < 0.8 {
		t.Fatalf("subject gathered value slot %d (mag %.2f), want %d strong", gotVal, mag, v.EntityCode(bob))
	}
	gotRel, magR := fieldArgmax(subj, offSCRel, R)
	if gotRel != len(v.RelA) || magR < 0.8 { // relB[0] has code slot len(RelA)
		t.Fatalf("subject gathered rel slot %d (mag %.2f), want %d strong", gotRel, magR, len(v.RelA))
	}
}

func TestGatherNullAbsorbsWhenNoTarget(t *testing.T) {
	// A fact-initial value token has no in-range relation/value target; the
	// null/self template must keep its gathered fields near zero instead
	// of locking onto a distant token.
	m, v := Build()
	alice, bob, carol, dave := v.Entities[0], v.Entities[1], v.Entities[2], v.Entities[3]
	toks := concat(
		v.Fact(bob, v.RelB[0], alice),
		v.Fact(dave, v.RelB[1], carol),
	)
	res := m.Prefill(toks, 0, false)
	val2 := res.Hidden.Row(4) // "dave" (fact-initial of second fact)
	_, mag := fieldArgmax(val2, offSCRel, R)
	if mag > 0.25 {
		t.Fatalf("fact-initial token gathered a stale relation (mag %.2f)", mag)
	}
}

func TestAnchorKeyGathersRoleCode(t *testing.T) {
	m, v := Build()
	bridge := v.Entities[1]
	toks := v.Anchor(3, v.RelB[0], bridge)
	res := m.Prefill(toks, 0, false)
	key := res.Hidden.Row(2)
	slot, mag := fieldArgmax(key, offSCRole, L)
	if slot != 3 || mag < 0.8 {
		t.Fatalf("anchor key gathered role %d (mag %.2f), want 3 strong", slot, mag)
	}
	rslot, rmag := fieldArgmax(key, offSCRel, R)
	if rslot != len(v.RelA) || rmag < 0.8 {
		t.Fatalf("anchor key gathered rel %d (mag %.2f), want %d strong", rslot, rmag, len(v.RelA))
	}
}

func TestJoinBothOrders(t *testing.T) {
	m, v := Build()
	bridge, answer := v.Entities[1], v.Entities[12]
	relB := v.RelB[0]
	role := 2

	// Anchor first, value half later: the-chief joins and gains the
	// record key and relation.
	toks := concat(v.Anchor(role, relB, bridge), v.ValueHalf(answer, role))
	res := m.Prefill(toks, 0, false)
	chiefRef := res.Hidden.Row(6) // the-chief token (position 4+2)
	slot, mag := fieldArgmax(chiefRef, offPKey, E)
	if slot != v.EntityCode(bridge) || mag < 0.7 {
		t.Fatalf("the-chief joined key slot %d (mag %.2f), want %d", slot, mag, v.EntityCode(bridge))
	}
	prslot, prmag := fieldArgmax(chiefRef, offPRel, R)
	if prslot != len(v.RelA) || prmag < 0.7 {
		t.Fatalf("the-chief joined rel slot %d (mag %.2f), want %d", prslot, prmag, len(v.RelA))
	}

	// Value half first, anchor later: the anchor key gains pVal.
	toks2 := concat(v.ValueHalf(answer, role), v.Anchor(role, relB, bridge))
	res2 := m.Prefill(toks2, 0, false)
	key := res2.Hidden.Row(6) // bridge entity in the anchor
	vslot, vmag := fieldArgmax(key, offPVal, E)
	if vslot != v.EntityCode(answer) || vmag < 0.7 {
		t.Fatalf("anchor key joined value slot %d (mag %.2f), want %d", vslot, vmag, v.EntityCode(answer))
	}
}

// buildTwoHop builds a context with a whole hop-1 fact and a hop-2 fact
// (split or whole), plus distractor facts, and returns tokens + expected
// answer token.
func buildTwoHop(v *Vocab, split bool) (context []int, query []int, answer int) {
	qent := v.Entities[0]   // alice
	bridge := v.Entities[1] // bob
	ans := v.Entities[12]   // paris
	relA := v.RelA[0]
	relB := v.RelB[0]

	distract := concat(
		v.Fact(v.Entities[13], v.RelB[1], v.Entities[2]),
		v.Fact(v.Entities[3], v.RelA[1], v.Entities[4]),
		v.Fact(v.Entities[14], v.RelB[0], v.Entities[5]),
	)
	hop1 := v.Fact(bridge, relA, qent)
	var hop2 []int
	if split {
		hop2 = concat(v.Anchor(4, relB, bridge), distract[:4], v.ValueHalf(ans, 4))
	} else {
		hop2 = v.Fact(ans, relB, bridge)
	}
	context = concat(distract, hop1, hop2, v.Fact(v.Entities[15], v.RelB[2], v.Entities[6]))
	return context, v.QueryTokens(relA, qent, relB), ans
}

func TestTwoHopWholeFactAnswer(t *testing.T) {
	m, v := Build()
	ctx, query, want := buildTwoHop(v, false)
	toks := concat(ctx, query)
	res := m.Prefill(toks, 0, false)
	got := Answer(m, res.Cache, res.Hidden.Row(len(toks)-1))
	if got != want {
		t.Fatalf("two-hop answer = %q, want %q", v.Name(got), v.Name(want))
	}
}

func TestTwoHopSplitFactAnswer(t *testing.T) {
	m, v := Build()
	ctx, query, want := buildTwoHop(v, true)
	toks := concat(ctx, query)
	res := m.Prefill(toks, 0, false)
	got := Answer(m, res.Cache, res.Hidden.Row(len(toks)-1))
	if got != want {
		t.Fatalf("split two-hop answer = %q, want %q", v.Name(got), v.Name(want))
	}
}

func TestCrossChunkSplitReuseFailsBlendRecovers(t *testing.T) {
	// The headline mechanism: a split hop-2 fact whose halves live in
	// different chunks. Full prefill answers correctly; full KV reuse
	// (chunk-local caches) loses the join and fails; CacheBlend with the
	// model's selection layer recovers the answer.
	m, v := Build()
	qent, bridge, ans := v.Entities[0], v.Entities[1], v.Entities[12]
	relA, relB := v.RelA[0], v.RelB[0]

	// Chunk layout: declaration and usage in *different* chunks, with
	// distractor split facts so the reuse failure can't luck into the
	// right answer.
	chunkA := concat(
		v.Fact(v.Entities[13], v.RelB[1], v.Entities[2]),
		v.Anchor(1, relB, bridge),
		v.Fact(bridge, relA, qent),
	)
	chunkB := concat(
		v.ValueHalf(ans, 1),
		v.Fact(v.Entities[3], v.RelA[1], v.Entities[4]),
		v.ValueHalf(v.Entities[14], 2), // dangling value half (distractor)
	)
	chunkC := concat(
		v.Anchor(3, v.RelB[1], v.Entities[5]),
		v.ValueHalf(v.Entities[15], 3),
		v.Fact(v.Entities[16], v.RelB[2], v.Entities[6]),
	)
	chunks := [][]int{chunkA, chunkB, chunkC}
	query := v.QueryTokens(relA, qent, relB)

	var caches []*kvcache.Cache
	for _, ch := range chunks {
		caches = append(caches, m.Prefill(ch, 0, false).Cache)
	}
	in := blend.Input{Model: m, Chunks: caches, ChunkTokens: chunks, SuffixTokens: query}

	ask := func(opts blend.Options) int {
		res := blend.Fuse(in, opts)
		return Answer(m, res.Cache, res.Hidden.Row(res.Hidden.Rows-1))
	}

	full := ask(blend.Options{Mode: blend.ModeFullRecompute})
	if full != ans {
		t.Fatalf("full recompute answered %q, want %q", v.Name(full), v.Name(ans))
	}
	reuse := ask(blend.Options{Mode: blend.ModeFullReuse})
	if reuse == ans {
		t.Fatalf("full KV reuse should lose the cross-chunk join but answered correctly")
	}
	blended := ask(blend.Options{
		Mode: blend.ModeBlend, RecomputeRatio: 0.15, SelectionLayer: SelectionLayer,
	})
	if blended != ans {
		t.Fatalf("cacheblend answered %q, want %q", v.Name(blended), v.Name(ans))
	}
}

func TestHKVDSelectionFindsJoinToken(t *testing.T) {
	// The usage half comes last, so its the-chief token performs the join;
	// it must rank among the highest KV deviations on the selection layer.
	m, v := Build()
	bridge, ans := v.Entities[1], v.Entities[12]
	chunkA := concat(v.Fact(v.Entities[13], v.RelB[1], v.Entities[2]), v.Anchor(1, v.RelB[0], bridge))
	chunkB := concat(v.Fact(v.Entities[3], v.RelA[1], v.Entities[4]), v.ValueHalf(ans, 1))
	chunks := [][]int{chunkA, chunkB}
	var caches []*kvcache.Cache
	for _, ch := range chunks {
		caches = append(caches, m.Prefill(ch, 0, false).Cache)
	}
	res := blend.Fuse(blend.Input{
		Model: m, Chunks: caches, ChunkTokens: chunks,
		SuffixTokens: v.QueryTokens(v.RelA[0], v.Entities[0], v.RelB[0]),
	}, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.25, SelectionLayer: SelectionLayer})

	// the-chief-1 sits at position len(chunkA) + 4 + 2.
	joinPos := len(chunkA) + 6
	found := false
	for _, j := range res.HKVD[SelectionLayer] {
		if j == joinPos {
			found = true
		}
	}
	if !found {
		t.Fatalf("join token at %d not selected as HKVD; selected %v (deviation %.3f, max %.3f)",
			joinPos, res.HKVD[SelectionLayer], res.DeviationByToken[joinPos], maxOf(res.DeviationByToken))
	}
}

func maxOf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

func TestAnswerFailureReadsPeriod(t *testing.T) {
	// With no relevant facts at all, the lookup diffuses and the readout
	// must not hallucinate a strong entity: token 0 (".") or a wrong
	// entity with near-zero logit is acceptable; the key property is that
	// the correct-answer path is what produces the right token, tested
	// above. Here we just pin the no-context behaviour.
	m, v := Build()
	query := v.QueryTokens(v.RelA[0], v.Entities[0], v.RelB[0])
	res := m.Prefill(query, 0, false)
	got := Answer(m, res.Cache, res.Hidden.Row(len(query)-1))
	if got == -1 {
		t.Fatal("Answer must produce a token")
	}
	if got == v.Entities[12] {
		t.Fatal("no-context query answered the test answer entity — suspicious")
	}
}

func TestBuildDeepAnswersCorrectly(t *testing.T) {
	for _, extra := range []int{0, 4, 8} {
		m, v := BuildDeep(extra)
		if m.Cfg.Layers != Layers+extra {
			t.Fatalf("deep model has %d layers want %d", m.Cfg.Layers, Layers+extra)
		}
		ctx, query, want := buildTwoHop(v, true)
		toks := concat(ctx, query)
		res := m.Prefill(toks, 0, false)
		got := Answer(m, res.Cache, res.Hidden.Row(len(toks)-1))
		if got != want {
			t.Fatalf("depth +%d: answer %q want %q", extra, v.Name(got), v.Name(want))
		}
	}
}

func TestBuildDeepBlendRecovery(t *testing.T) {
	// The cross-chunk recovery property must hold at depth too.
	m, v := BuildDeep(4)
	bridge, ans, qent := v.Entities[1], v.Entities[12], v.Entities[0]
	relA, relB := v.RelA[0], v.RelB[0]
	chunkA := concat(v.Fact(v.Entities[13], v.RelB[1], v.Entities[2]),
		v.Anchor(1, relB, bridge), v.Fact(bridge, relA, qent))
	chunkB := concat(v.ValueHalf(ans, 1), v.Fact(v.Entities[3], v.RelA[1], v.Entities[4]))
	chunks := [][]int{chunkA, chunkB}
	var caches []*kvcache.Cache
	for _, ch := range chunks {
		caches = append(caches, m.Prefill(ch, 0, false).Cache)
	}
	in := blend.Input{Model: m, Chunks: caches, ChunkTokens: chunks,
		SuffixTokens: v.QueryTokens(relA, qent, relB)}
	reuse := blend.Fuse(in, blend.Options{Mode: blend.ModeFullReuse})
	gotReuse := Answer(m, reuse.Cache, reuse.Hidden.Row(reuse.Hidden.Rows-1))
	bl := blend.Fuse(in, blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.2, SelectionLayer: SelectionLayer})
	gotBlend := Answer(m, bl.Cache, bl.Hidden.Row(bl.Hidden.Rows-1))
	if gotReuse == ans {
		t.Fatal("deep model: reuse should fail on cross-chunk split")
	}
	if gotBlend != ans {
		t.Fatalf("deep model: blend answered %q want %q", v.Name(gotBlend), v.Name(ans))
	}
}

func TestAnswerIsFirstGeneratedTokenAndLeavesCache(t *testing.T) {
	m, v := Build()
	check := func(name string, c *kvcache.Cache, last []float32) {
		t.Helper()
		tokens, k0 := c.Tokens, c.K[0]
		want := m.Generate(c.Clone(), last, 1, nil)
		got := Answer(m, c, last)
		if len(want) != 1 || got != want[0] {
			t.Fatalf("%s: Answer = %d, Generate decoded %v", name, got, want)
		}
		if c.Tokens != tokens || c.K[0] != k0 {
			t.Fatalf("%s: Answer modified the cache (%d -> %d tokens)", name, tokens, c.Tokens)
		}
	}
	for _, split := range []bool{false, true} {
		ctx, query, _ := buildTwoHop(v, split)
		toks := concat(ctx, query)
		res := m.Prefill(toks, 0, false)
		check("prefill", res.Cache, res.Hidden.Row(len(toks)-1))
	}
	ctx, query, _ := buildTwoHop(v, true)
	chunks := [][]int{ctx[:len(ctx)/2], ctx[len(ctx)/2:]}
	in := blend.Input{Model: m, ChunkTokens: chunks, SuffixTokens: query}
	for _, ch := range chunks {
		in.Chunks = append(in.Chunks, m.Prefill(ch, 0, false).Cache)
	}
	for _, mode := range []blend.Mode{blend.ModeBlend, blend.ModeFullReuse, blend.ModeFullRecompute} {
		res := blend.Fuse(in, blend.Options{Mode: mode, RecomputeRatio: 0.15, SelectionLayer: SelectionLayer})
		check(mode.String(), res.Cache, res.Hidden.Row(res.Hidden.Rows-1))
	}
}
