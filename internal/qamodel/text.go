package qamodel

import (
	"strings"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Fact renders "<value> <rel> <subject> ." — the statement rel(subject) =
// value.
func (v *Vocab) Fact(value, rel, subject int) []int {
	return []int{value, rel, subject, v.Period}
}

// Anchor renders the anchor half of a split fact: "<chief-i> <rel> <key> ."
// carrying the record key and relation but no value.
func (v *Vocab) Anchor(role, rel, key int) []int {
	return []int{v.RoleD[role], rel, key, v.Period}
}

// ValueHalf renders the value half of a split fact: "<value> fills
// <the-chief-i> ." — together with Anchor(role, rel, key) it means
// rel(key) = value.
func (v *Vocab) ValueHalf(value, role int) []int {
	return []int{value, v.Fills, v.RoleR[role], v.Period}
}

// QueryTokens renders the two-hop question "query <relA> - : <qent> <relB>
// ?" asking for relB(relA(qent)). The dash spacer keeps qent's own gather
// kernel away from relA so the query tokens do not form a false record
// (see the gather-head margins in the package comment).
func (v *Vocab) QueryTokens(relA, qent, relB int) []int {
	return []int{v.Query, relA, v.Dash, v.Colon, qent, relB, v.QMark}
}

// ParseQuery recovers (relA, qent, relB) from a token sequence ending in
// the QueryTokens pattern (any prefix, e.g. topic stamps, is ignored).
// ok is false if the tail does not look like a query.
func (v *Vocab) ParseQuery(tokens []int) (relA, qent, relB int, ok bool) {
	n := len(tokens)
	if n < 7 || tokens[n-1] != v.QMark {
		return 0, 0, 0, false
	}
	relA, qent, relB = tokens[n-6], tokens[n-3], tokens[n-2]
	if tokens[n-7] != v.Query || tokens[n-5] != v.Dash || tokens[n-4] != v.Colon {
		return 0, 0, 0, false
	}
	return relA, qent, relB, true
}

// Text renders token ids as a space-joined string (for retrieval
// embeddings and debugging).
func (v *Vocab) Text(tokens []int) string {
	var b strings.Builder
	for i, t := range tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.Name(t))
	}
	return b.String()
}

// Answer greedily picks the single answer token from the final residual
// of the last input token ("?"): the first token Generate would decode
// from c, without the decode step that would follow it. c is left
// unmodified.
func Answer(m *model.Model, c *kvcache.Cache, lastHidden []float32) int {
	return tensor.Argmax(m.Logits(lastHidden))
}

// field extracts a residual-stream field from a hidden row (testing and
// diagnostics).
func field(h []float32, off, n int) []float32 { return h[off : off+n] }

// fieldArgmax returns the strongest slot of a field and its value.
func fieldArgmax(h []float32, off, n int) (int, float32) {
	f := field(h, off, n)
	i := tensor.Argmax(f)
	if i < 0 {
		return -1, 0
	}
	return i, f[i]
}
