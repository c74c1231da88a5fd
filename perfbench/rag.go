package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/blend"
	"repro/internal/chunk"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/retrieval"
	"repro/internal/tensor"
)

const (
	// corpora is how many seeded Musique-extended corpora a run draws its
	// questions from. One corpus holds 16 shared chunks but only a handful
	// of distinct questions, too few for answer_f1 to be steady across
	// seeds.
	corpora = 64
	topK    = 6
	// poolChunks is the chunk count of one Musique-extended corpus.
	poolChunks = 16
	// storeShare is the chunk store's capacity as a share of the whole
	// pool's KV footprint, so part of the lookups miss and prefill.
	storeShare = 0.5
)

// blendOpts is the fusion every request runs: CacheBlend at r = 0.15,
// selecting on the layer the constructed QA model needs.
var blendOpts = blend.Options{Mode: blend.ModeBlend, RecomputeRatio: 0.15, SelectionLayer: qamodel.SelectionLayer}

// corpus is one shared chunk pool and its retriever.
type corpus struct {
	pool [][]int
	r    *retrieval.Retriever
}

// question is one distinct query of one corpus.
type question struct {
	corpus   int
	text     string
	query    []int
	answer   string
	relevant []int
	chunks   []int // retrieved chunk indices, set by prepare
	ref      int   // full-recompute answer token, set by prepare
}

// ragBench is the numeric RAG request path: retrieval, a chunk-KV lookup
// in a tiered store (prefill and write back on a miss), CacheBlend fusion
// and answer decoding.
type ragBench struct {
	seed      int64
	m         *model.Model
	v         *qamodel.Vocab
	corpora   []corpus
	questions []question  // distinct questions in seeded request order
	warm      []warmChunk // the store's warmup writes, in order
	capacity  int64       // the store's capacity in bytes
	store     *kvstore.Tiered

	round   int   // rounds started
	next    int   // the round's next question
	answers []int // first-round CacheBlend answer per question

	// First-round counters.
	lookups, hits       int
	bytesLoaded         int64
	selected, ctxLayers int64
	tokenLayers         int64
}

func newFuseRAG(seed int64) *ragBench { return &ragBench{seed: seed} }

// warmChunk is one chunk's prefilled KV under its store key.
type warmChunk struct {
	key chunk.ID
	kv  *kvcache.Cache
}

// setup builds the model, the corpora and retrievers, and prefills every
// pool chunk's KV in a seeded order, which startRound writes into a
// fresh tiered chunk store.
func (b *ragBench) setup(*tracer) error {
	b.m, b.v = qamodel.Build()
	b.corpora, b.questions = nil, nil
	var footprint int64
	for c := 0; c < corpora; c++ {
		cfg := dataset.MusiqueExtended()
		cfg.Seed = b.seed*1_000_003 + int64(c)
		ds := dataset.GenerateExtended(b.v, cfg)
		pool := ds.Cases[0].Chunks
		if len(pool) != poolChunks {
			return fmt.Errorf("corpus %d has %d chunks, want %d", c, len(pool), poolChunks)
		}
		b.corpora = append(b.corpora, corpus{pool: pool, r: retrieval.NewRetriever(128, ds.Cases[0].ChunkTexts)})
		for _, toks := range pool {
			footprint += b.m.NewCache(len(toks)).SizeBytes()
		}
		seen := map[string]bool{}
		for _, cs := range ds.Cases {
			if seen[cs.QueryText] {
				continue // extended datasets cycle through their questions
			}
			seen[cs.QueryText] = true
			b.questions = append(b.questions, question{corpus: c, text: cs.QueryText, query: cs.Query,
				answer: cs.Answer, relevant: cs.Relevant})
		}
	}
	g := tensor.NewRNG(b.seed)
	perm := g.Perm(len(b.questions))
	shuffled := make([]question, len(perm))
	for i, p := range perm {
		shuffled[i] = b.questions[p]
	}
	b.questions = shuffled

	b.capacity = int64(storeShare * float64(footprint))
	b.warm = b.warm[:0]
	for _, ci := range g.Perm(corpora) {
		for _, toks := range b.corpora[ci].pool {
			b.warm = append(b.warm, warmChunk{chunk.Hash(b.m.Cfg.Name, toks), b.m.Prefill(toks, 0, false).Cache})
		}
	}
	b.round = 0
	b.answers = make([]int, len(b.questions))
	return nil
}

// startRound replaces the chunk store with a fresh one warmed by the
// setup's writes, so every round sees the same hits and misses.
func (b *ragBench) startRound() error {
	b.closeStore()
	store, err := kvstore.NewTiered([]kvstore.Tier{
		{Device: device.GPUHBM, Capacity: b.capacity / 4},
		{Device: device.CPURAM, Capacity: b.capacity - b.capacity/4},
	}, kvstore.LRU)
	if err != nil {
		return err
	}
	b.store = store
	for _, w := range b.warm {
		if err := b.store.Put(w.key, w.kv); err != nil {
			return fmt.Errorf("warm store: %w", err)
		}
	}
	b.round++
	b.next = 0
	return nil
}

// closeStore closes the chunk store, if one is open.
func (b *ragBench) closeStore() {
	if b.store != nil {
		b.store.Close()
		b.store = nil
	}
}

// prepare retrieves every question's chunks and computes its
// full-recompute answer, the reference each timed answer must equal.
func (b *ragBench) prepare(res *results) error {
	recall := 0.0
	for i := range b.questions {
		q := &b.questions[i]
		c := b.corpora[q.corpus]
		q.chunks = c.r.TopK(q.text, topK)
		in := blend.Input{Model: b.m, SuffixTokens: q.query}
		for _, id := range q.chunks {
			// Full recompute ignores cache contents; empty caches keep
			// the geometry.
			in.Chunks = append(in.Chunks, b.m.NewCache(len(c.pool[id])))
			in.ChunkTokens = append(in.ChunkTokens, c.pool[id])
		}
		full := blend.Fuse(in, blend.Options{Mode: blend.ModeFullRecompute})
		q.ref = qamodel.Answer(b.m, full.Cache, full.Hidden.Row(full.Hidden.Rows-1))
		got := map[int]bool{}
		for _, id := range q.chunks {
			got[id] = true
		}
		for _, id := range q.relevant {
			if got[id] {
				recall += 1 / float64(len(q.relevant))
			}
		}
	}
	res.count("reference", len(b.questions), 0)
	res.setLayer("retrieval.recall", recall/float64(len(b.questions)), "share")
	return nil
}

func (b *ragBench) roundOps() int { return len(b.questions) }

// op serves one RAG request and checks its answer against the
// full-recompute reference.
func (b *ragBench) op(tr *tracer, id int) (int, error) {
	qi := b.next
	firstRound := b.round == 1
	b.next++
	q := &b.questions[qi]
	c := b.corpora[q.corpus]
	root := tr.begin("rag.request", -1, id)
	defer tr.end(root)

	s := tr.begin("retrieval.topk", root, id)
	ids := c.r.TopK(q.text, topK)
	tr.end(s)
	in := blend.Input{Model: b.m, SuffixTokens: q.query}
	for _, ci := range ids {
		toks := c.pool[ci]
		key := chunk.Hash(b.m.Cfg.Name, toks)
		s = tr.begin("kvstore.get", root, id)
		payload, _, ok := b.store.Get(key)
		tr.end(s)
		var kv *kvcache.Cache
		if ok {
			kv = payload.(*kvcache.Cache)
		} else {
			s = tr.begin("model.prefill", root, id)
			kv = b.m.Prefill(toks, 0, false).Cache
			tr.end(s)
			s = tr.begin("kvstore.put", root, id)
			err := b.store.Put(key, kv)
			tr.end(s)
			if err != nil {
				return 1, fmt.Errorf("store put: %w", err)
			}
		}
		if firstRound {
			b.lookups++
			if ok {
				b.hits++
				b.bytesLoaded += kv.SizeBytes()
			}
		}
		in.Chunks = append(in.Chunks, kv)
		in.ChunkTokens = append(in.ChunkTokens, toks)
	}
	s = tr.begin("blend.fuse", root, id)
	fused := blend.Fuse(in, blendOpts)
	tr.end(s)
	s = tr.begin("qamodel.answer", root, id)
	tok := qamodel.Answer(b.m, fused.Cache, fused.Hidden.Row(fused.Hidden.Rows-1))
	tr.end(s)

	if firstRound {
		b.answers[qi] = tok
		for _, n := range fused.SelectedPerLayer {
			b.selected += int64(n)
		}
		b.ctxLayers += int64(fused.SuffixStart * b.m.Cfg.Layers)
		b.tokenLayers += int64(fused.ComputedTokenLayers + fused.ProjectedTokenLayers)
	}
	if tok != q.ref {
		return 1, fmt.Errorf("question %d: CacheBlend answered %q, full recompute %q", qi, b.v.Name(tok), b.v.Name(q.ref))
	}
	return 1, nil
}

// finish reports answer quality and the fusion counters over the first
// round. Every workload reports every end-to-end metric, so the sim_*
// metrics and serving counters repeat, untimed, those of serve-reuse on
// this seed; fuse-rag has no simulated deployment of its own.
func (b *ragBench) finish(res *results) error {
	b.closeStore()
	b.quality(res)
	return reuseDeployment().simMetrics(res, b.seed, nil)
}

// quality records the answer metrics, the answer digest and the fusion
// counters of the first round.
func (b *ragBench) quality(res *results) {
	f1, match := 0.0, 0
	var names strings.Builder
	for i, q := range b.questions {
		pred := b.v.Name(b.answers[i])
		f1 += metrics.F1(strings.Fields(pred), strings.Fields(q.answer))
		if b.answers[i] == q.ref {
			match++
		}
		names.WriteString(pred)
		names.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(names.String()))
	res.digest(fmt.Sprintf("answers n=%d", len(b.questions)), hex.EncodeToString(sum[:]))
	n := float64(len(b.questions))
	res.setE2E("answer_f1", f1/n, "share")
	res.setE2E("answer_match_full", float64(match)/n, "share")
	res.setLayer("kvstore.chunk_hit_rate", float64(b.hits)/float64(b.lookups), "share")
	res.setLayer("kvstore.bytes_loaded_per_req", float64(b.bytesLoaded)/n, "B")
	res.setLayer("blend.recompute_share", float64(b.selected)/float64(b.ctxLayers), "share")
	res.setLayer("blend.token_layers_per_req", float64(b.tokenLayers)/n, "count")
}

// ragQuality measures the answer quality CacheBlend at r = 0.15 delivers
// on this seed's corpora by running one untimed pass of the fuse-rag
// request path.
func ragQuality(res *results, seed int64) error {
	b := newFuseRAG(seed)
	if err := b.setup(nil); err != nil {
		return err
	}
	defer b.closeStore()
	if err := b.prepare(res); err != nil {
		return err
	}
	if err := b.startRound(); err != nil {
		return err
	}
	failed := 0
	for i := 0; i < b.roundOps(); i++ {
		if _, err := safeOp(b, nil, i); err != nil {
			failed++
		}
	}
	res.count("quality", len(b.questions), failed)
	b.quality(res)
	return nil
}
