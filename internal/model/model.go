package model

import (
	"fmt"
	"math"

	"repro/internal/kvcache"
	"repro/internal/rope"
	"repro/internal/tensor"
)

// LayerWeights holds the parameters of one transformer layer.
type LayerWeights struct {
	// AttnGain is the pre-attention RMS-norm gain (nil under NormNone).
	AttnGain []float32
	// Wq maps hidden → Heads×HeadDim, Wk/Wv map hidden → KVHeads×HeadDim.
	Wq, Wk, Wv *tensor.Matrix
	// Wo maps the concatenated head outputs back to hidden.
	Wo *tensor.Matrix
	// FFNGain is the pre-FFN RMS-norm gain (nil under NormNone).
	FFNGain []float32
	// W1 (gate) and W3 (up) map hidden → FFNDim; W2 (down) maps back.
	// All nil when FFNDim is 0.
	W1, W2, W3 *tensor.Matrix
}

// Model is a complete transformer: embeddings, layers and output head.
type Model struct {
	Cfg Config
	// Embed is the Vocab×Hidden token embedding table.
	Embed *tensor.Matrix
	// Layer holds per-layer weights.
	Layer []LayerWeights
	// FinalGain is the last RMS-norm gain (nil under NormNone).
	FinalGain []float32
	// LMHead maps hidden → vocab logits.
	LMHead *tensor.Matrix
	// Rope is the rotary table over the first RotaryDims of each head
	// (nil when RotaryDims is 0).
	Rope *rope.Table
}

// NewRandom builds a model with deterministic Xavier-style random weights
// derived from seed. Two calls with the same config and seed produce
// identical models.
func NewRandom(cfg Config, seed int64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := tensor.NewRNG(seed)
	hidden := cfg.Hidden()
	m := &Model{Cfg: cfg}
	if cfg.RotaryDims > 0 {
		m.Rope = rope.NewTable(cfg.RotaryDims, cfg.RopeBase)
	}
	m.Embed = g.NewNormal(cfg.Vocab, hidden, 1.0/math.Sqrt(float64(hidden)))
	std := 1.0 / math.Sqrt(float64(hidden))
	qkScale := cfg.QKInitScale
	if qkScale == 0 {
		qkScale = 1
	}
	ones := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for i := 0; i < cfg.Layers; i++ {
		lw := LayerWeights{
			Wq: g.NewNormal(hidden, cfg.Heads*cfg.HeadDim, std*qkScale),
			Wk: g.NewNormal(hidden, cfg.KVDim(), std*qkScale),
			Wv: g.NewNormal(hidden, cfg.KVDim(), std),
			Wo: g.NewNormal(cfg.Heads*cfg.HeadDim, hidden, std),
		}
		if cfg.FFNDim > 0 {
			lw.W1 = g.NewNormal(hidden, cfg.FFNDim, std)
			lw.W3 = g.NewNormal(hidden, cfg.FFNDim, std)
			lw.W2 = g.NewNormal(cfg.FFNDim, hidden, 1.0/math.Sqrt(float64(cfg.FFNDim)))
		}
		if cfg.Norm == NormRMS {
			lw.AttnGain = ones(hidden)
			lw.FFNGain = ones(hidden)
		}
		m.Layer = append(m.Layer, lw)
	}
	if cfg.Norm == NormRMS {
		m.FinalGain = ones(hidden)
	}
	m.LMHead = g.NewNormal(hidden, cfg.Vocab, std)
	return m
}

// NewZero builds a model whose weights are all zero — the starting point
// for constructed-weight models (package qamodel) that fill in exactly the
// blocks they need.
func NewZero(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hidden := cfg.Hidden()
	m := &Model{Cfg: cfg}
	if cfg.RotaryDims > 0 {
		m.Rope = rope.NewTable(cfg.RotaryDims, cfg.RopeBase)
	}
	m.Embed = tensor.New(cfg.Vocab, hidden)
	for i := 0; i < cfg.Layers; i++ {
		lw := LayerWeights{
			Wq: tensor.New(hidden, cfg.Heads*cfg.HeadDim),
			Wk: tensor.New(hidden, cfg.KVDim()),
			Wv: tensor.New(hidden, cfg.KVDim()),
			Wo: tensor.New(cfg.Heads*cfg.HeadDim, hidden),
		}
		if cfg.FFNDim > 0 {
			lw.W1 = tensor.New(hidden, cfg.FFNDim)
			lw.W3 = tensor.New(hidden, cfg.FFNDim)
			lw.W2 = tensor.New(cfg.FFNDim, hidden)
		}
		m.Layer = append(m.Layer, lw)
	}
	m.LMHead = tensor.New(hidden, cfg.Vocab)
	return m
}

// NewCache returns an empty KV cache shaped for this model and sequence
// length.
func (m *Model) NewCache(tokens int) *kvcache.Cache {
	return kvcache.New(m.Cfg.Layers, m.Cfg.KVDim(), tokens)
}

// EmbedTokens returns the len(tokens)×hidden embedding matrix. Token id -1
// (unknown) embeds as the zero vector.
func (m *Model) EmbedTokens(tokens []int) *tensor.Matrix {
	h := tensor.New(len(tokens), m.Cfg.Hidden())
	for i, t := range tokens {
		if t < 0 {
			continue
		}
		if t >= m.Cfg.Vocab {
			panic(fmt.Sprintf("model: token %d out of vocab %d", t, m.Cfg.Vocab))
		}
		copy(h.Row(i), m.Embed.Row(t))
	}
	return h
}

// normRows returns the normalised rows of h. Under NormNone that is h
// itself, so callers must not write to the result.
func (m *Model) normRows(h *tensor.Matrix, gain []float32) *tensor.Matrix {
	if m.Cfg.Norm == NormNone {
		return h
	}
	out := tensor.New(h.Rows, h.Cols)
	for r := 0; r < h.Rows; r++ {
		tensor.RMSNorm(out.Row(r), h.Row(r), gain, m.Cfg.Eps)
	}
	return out
}

// checkRows validates the hidden rows and positions a layer call gets.
func (m *Model) checkRows(h *tensor.Matrix, idx []int, c *kvcache.Cache) {
	if h.Rows != len(idx) || h.Cols != m.Cfg.Hidden() {
		panic(fmt.Sprintf("model: hidden shape %dx%d, want %dx%d", h.Rows, h.Cols, len(idx), m.Cfg.Hidden()))
	}
	for r, j := range idx {
		if r > 0 && idx[r-1] >= j {
			panic("model: idx must be strictly ascending")
		}
		if j < 0 || j >= c.Tokens {
			panic(fmt.Sprintf("model: token index %d out of cache range %d", j, c.Tokens))
		}
	}
}

// rotate applies RoPE at absolute position c.BasePos+idx[r] to the first
// RotaryDims of each of the heads in row r of x.
func (m *Model) rotate(x *tensor.Matrix, heads int, idx []int, c *kvcache.Cache) {
	if m.Rope == nil {
		return
	}
	hd, rot := m.Cfg.HeadDim, m.Cfg.RotaryDims
	for r, j := range idx {
		row := x.Row(r)
		for hh := 0; hh < heads; hh++ {
			m.Rope.Apply(row[hh*hd:hh*hd+rot], c.BasePos+j)
		}
	}
}

// writeKV projects the normalised rows x to K and V on layer li, rotates
// the keys and stores both in c at the positions idx. When idx is one run
// of consecutive positions (every full-prefill layer) the projections are
// written straight into the cache rows.
func (m *Model) writeKV(li int, x *tensor.Matrix, idx []int, c *kvcache.Cache) {
	lw := &m.Layer[li]
	n, kvDim := len(idx), m.Cfg.KVDim()
	block := n > 0 && idx[n-1]-idx[0] == n-1
	var k, v *tensor.Matrix
	if block {
		rows := func(p *tensor.Matrix) *tensor.Matrix {
			return tensor.NewFrom(n, kvDim, p.Data[idx[0]*kvDim:(idx[n-1]+1)*kvDim])
		}
		k, v = rows(c.K[li]), rows(c.V[li])
	} else {
		k, v = tensor.New(n, kvDim), tensor.New(n, kvDim)
	}
	tensor.MatMulInto(k, x, lw.Wk)
	tensor.MatMulInto(v, x, lw.Wv)
	m.rotate(k, m.Cfg.KVHeads, idx, c)
	if !block {
		for r, j := range idx {
			c.SetToken(li, j, k.Row(r), v.Row(r))
		}
	}
}

// ForwardLayerPartial computes layer li for the token positions listed in
// idx (strictly ascending). h holds the layer-li residual-stream rows for
// those positions (len(idx)×hidden). c is the full-sequence KV cache whose
// rows at idx are overwritten with freshly computed K/V before attention,
// so selected tokens see each other's updated keys and values exactly as
// they would under full prefill (paper Figure 5(b)). All other positions'
// K/V are reused from c as-is.
//
// Absolute positions are c.BasePos + index; rotary encoding (if enabled)
// is applied to the first RotaryDims of each head.
//
// The selected rows run as one batch, in phases: normalise every row,
// project Q, K and V with one MatMulInto each, rotate and store K/V,
// attend row by row, project the head outputs through Wo and add the
// residual, then run the FFN as batched MatMulInto calls. Each output
// element sums in the same order as a row-at-a-time pass, so the result
// does not depend on which other rows share the batch.
//
// The returned matrix holds the layer-(li+1) residual rows for idx. When
// wantAttn is true the second result holds the attention probabilities of
// the selected rows — len(idx) rows, Heads×c.Tokens columns — which is the
// "forward attention matrix" used for deviation measurements (§4.1);
// otherwise it is nil.
func (m *Model) ForwardLayerPartial(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache, wantAttn bool) (*tensor.Matrix, *tensor.Matrix) {
	cfg := m.Cfg
	if li < 0 || li >= cfg.Layers {
		panic(fmt.Sprintf("model: layer %d out of range", li))
	}
	m.checkRows(h, idx, c)
	lw := &m.Layer[li]
	n := len(idx)

	// Project Q/K/V for the selected tokens and write K/V into the cache
	// so attention runs over the updated entries.
	x := m.normRows(h, lw.AttnGain)
	q := tensor.New(n, cfg.Heads*cfg.HeadDim)
	tensor.MatMulInto(q, x, lw.Wq)
	m.rotate(q, cfg.Heads, idx, c)
	m.writeKV(li, x, idx, c)

	// Attention over the full (updated ∪ reused) KV, then Wo and the
	// residual.
	var attn *tensor.Matrix
	if wantAttn {
		attn = tensor.New(n, cfg.Heads*c.Tokens)
	}
	heads := tensor.New(n, cfg.Heads*cfg.HeadDim)
	m.attend(li, q, heads, idx, c, attn)
	out := tensor.New(n, cfg.Hidden())
	tensor.MatMulInto(out, heads, lw.Wo)
	tensor.Add(out.Data, h.Data)

	if cfg.FFNDim > 0 {
		x = m.normRows(out, lw.FFNGain)
		gate := tensor.New(n, cfg.FFNDim)
		up := tensor.New(n, cfg.FFNDim)
		tensor.MatMulInto(gate, x, lw.W1)
		tensor.MatMulInto(up, x, lw.W3)
		tensor.SiLU(gate.Data)
		for i := range gate.Data {
			gate.Data[i] *= up.Data[i]
		}
		down := tensor.New(n, cfg.Hidden())
		tensor.MatMulInto(down, gate, lw.W2)
		tensor.Add(out.Data, down.Data)
	}
	return out, attn
}

// attend writes each selected row's causal attention output (positions
// 0..idx[r]) into row r of heads, and its probabilities into attn when
// attn is non-nil. Scores come four keys per pass; each still sums in
// index order, so it equals tensor.Dot.
func (m *Model) attend(li int, q, heads *tensor.Matrix, idx []int, c *kvcache.Cache, attn *tensor.Matrix) {
	cfg := m.Cfg
	hd, group, kvDim := cfg.HeadDim, cfg.GroupSize(), cfg.KVDim()
	scale := float32(1.0 / math.Sqrt(float64(hd)))
	K, V := c.K[li].Data, c.V[li].Data
	scores := make([]float32, c.Tokens)
	live := make([]int, 0, c.Tokens)
	for r, j := range idx {
		n := j + 1 // causal: attend to positions 0..j
		s := scores[:n]
		for hh := 0; hh < cfg.Heads; hh++ {
			off := (hh / group) * hd
			qh := q.Row(r)[hh*hd : (hh+1)*hd]
			key := func(t int) []float32 { return K[t*kvDim+off : t*kvDim+off+hd] }
			t := 0
			for ; t+4 <= n; t += 4 {
				s0, s1, s2, s3 := tensor.Dot4(qh, key(t), key(t+1), key(t+2), key(t+3))
				s[t], s[t+1], s[t+2], s[t+3] = s0*scale, s1*scale, s2*scale, s3*scale
			}
			for ; t < n; t++ {
				s[t] = tensor.Dot(qh, key(t)) * scale
			}
			tensor.Softmax(s)
			// Weighted value sum over the nonzero weights, in ascending
			// position order, four values per pass.
			live = live[:0]
			for t, w := range s {
				if w != 0 {
					live = append(live, t)
				}
			}
			oh := heads.Row(r)[hh*hd : (hh+1)*hd]
			val := func(t int) []float32 { return V[t*kvDim+off : t*kvDim+off+hd] }
			i := 0
			for ; i+4 <= len(live); i += 4 {
				t0, t1, t2, t3 := live[i], live[i+1], live[i+2], live[i+3]
				tensor.AXPY4(s[t0], s[t1], s[t2], s[t3], val(t0), val(t1), val(t2), val(t3), oh)
			}
			for ; i < len(live); i++ {
				tensor.AXPY(s[live[i]], val(live[i]), oh)
			}
			if attn != nil {
				copy(attn.Row(r)[hh*c.Tokens:], s)
			}
		}
	}
}

// ProjectKV computes and stores fresh K/V cache entries on layer li for
// the token positions in idx without running attention or the FFN. h holds
// the layer-li residual rows for idx. CacheBlend uses this on its HKVD
// selection layer: new K/V for every token are needed to measure KV
// deviation against the loaded cache, but attention only runs for the
// tokens that survive selection — so the projection cost is paid for all
// tokens on one layer while the quadratic attention cost is not.
func (m *Model) ProjectKV(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache) {
	m.checkRows(h, idx, c)
	m.writeKV(li, m.normRows(h, m.Layer[li].AttnGain), idx, c)
}

// PrefillResult bundles the outputs of a prefill pass.
type PrefillResult struct {
	// Cache is the KV cache of the whole sequence.
	Cache *kvcache.Cache
	// Hidden is the final-layer residual stream (tokens×hidden).
	Hidden *tensor.Matrix
	// Attn, when requested, holds one forward-attention matrix per layer.
	Attn []*tensor.Matrix
}

// Prefill runs full prefill over tokens with the sequence starting at
// absolute position basePos. It is implemented as ForwardLayerPartial with
// every token selected, which keeps the full and selective paths
// bit-identical by construction.
func (m *Model) Prefill(tokens []int, basePos int, wantAttn bool) *PrefillResult {
	c := m.NewCache(len(tokens))
	c.BasePos = basePos
	h := m.EmbedTokens(tokens)
	idx := make([]int, len(tokens))
	for i := range idx {
		idx[i] = i
	}
	res := &PrefillResult{Cache: c}
	for li := 0; li < m.Cfg.Layers; li++ {
		var attn *tensor.Matrix
		h, attn = m.ForwardLayerPartial(li, h, idx, c, wantAttn)
		if wantAttn {
			res.Attn = append(res.Attn, attn)
		}
	}
	res.Hidden = h
	return res
}

// Logits applies the final norm and LM head to one residual-stream row.
func (m *Model) Logits(h []float32) []float32 {
	normed := m.normRows(tensor.NewFrom(1, len(h), h), m.FinalGain)
	return tensor.VecMat(normed.Data, m.LMHead)
}

// Generate decodes greedily from the cache. lastHidden must be the
// final-layer residual of the last prefilled token. Decoding appends each
// generated token's KV to c (which grows) and stops after maxNew tokens or
// when stop (if non-nil) returns true for a generated token; the stopping
// token is not included in the result.
func (m *Model) Generate(c *kvcache.Cache, lastHidden []float32, maxNew int, stop func(tok int) bool) []int {
	var out []int
	h := append([]float32(nil), lastHidden...)
	for n := 0; n < maxNew; n++ {
		tok := tensor.Argmax(m.Logits(h))
		if tok < 0 || (stop != nil && stop(tok)) {
			break
		}
		out = append(out, tok)
		// Append the new token's position and run all layers for it.
		c.Grow(1)
		j := c.Tokens - 1
		hm := m.EmbedTokens([]int{tok})
		for li := 0; li < m.Cfg.Layers; li++ {
			hm, _ = m.ForwardLayerPartial(li, hm, []int{j}, c, false)
		}
		h = hm.Row(0)
	}
	return out
}
