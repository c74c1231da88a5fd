package serve

import (
	"testing"

	"repro/internal/tensor"
)

// FuzzPolicyStep throws random member phase/budget mixes at one
// scheduling step — the budget allocator plus every policy's admission
// quota — and checks the invariants the replica loop's liveness rests
// on: a step with prefill work always grants at least one token (the
// batch can never stall), granted slices never exceed a member's
// remaining tokens or collectively the budget (tokens are never
// double-counted), and admission quotas stay within the batch-cap
// headroom with decode-priority's aging guarantee intact.
func FuzzPolicyStep(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(256), uint8(2))
	f.Add(int64(7), uint8(1), uint16(1), uint8(0))
	f.Add(int64(42), uint8(12), uint16(512), uint8(9))
	f.Add(int64(-3), uint8(0), uint16(64), uint8(255))

	f.Fuzz(func(t *testing.T, seed int64, n uint8, rawBudget uint16, deferred uint8) {
		g := tensor.NewRNG(seed)
		budget := int(rawBudget%1024) + 1
		size := int(n%16) + 1
		batch := make([]*member, size)
		waiting := 0 // members with prefill tokens left
		for i := range batch {
			prefTotal := 1 + g.Intn(4096)
			m := &member{
				prefTotal: prefTotal,
				prefDone:  g.Intn(prefTotal), // < prefTotal: still prefilling
				perTok:    g.Float64(),
				slice:     g.Intn(100), // stale garbage the allocator must overwrite
				decoding:  g.Float64() < 0.5,
			}
			if !m.decoding {
				waiting++
			}
			batch[i] = m
		}

		prefillers, decoders, longest := allocPrefill(batch, budget)
		if prefillers+decoders > size || decoders < 0 || prefillers < 0 {
			t.Fatalf("phase counts out of range: %d prefillers + %d decoders of %d", prefillers, decoders, size)
		}
		granted, maxSlice := 0, 0.0
		for i, m := range batch {
			if m.decoding {
				continue
			}
			if m.slice < 0 || m.slice > m.prefTotal-m.prefDone {
				t.Fatalf("member %d: slice %d outside [0, %d remaining] — tokens double-counted",
					i, m.slice, m.prefTotal-m.prefDone)
			}
			granted += m.slice
			if s := float64(m.slice) * m.perTok; s > maxSlice {
				maxSlice = s
			}
		}
		if granted > budget {
			t.Fatalf("granted %d tokens over the %d budget", granted, budget)
		}
		if waiting > 0 && granted == 0 {
			t.Fatalf("batch with %d waiting prefillers granted nothing — the step would stall", waiting)
		}
		if waiting > 0 && batch[firstPrefiller(batch)].slice == 0 {
			t.Fatal("oldest prefiller skipped: admission-order allocation broken")
		}
		if longest != maxSlice {
			t.Fatalf("longest slice %v, members say %v", longest, maxSlice)
		}

		// Every policy's quota stays inside the headroom, and
		// decode-priority admits once aged past its limit.
		headroom := g.Intn(9)
		for _, sched := range []string{SchedFIFO, SchedChunkedPrefill, SchedDecodePriority, SchedSLO} {
			cfg := Config{Sched: sched, StarveLimit: 0, PrefillBudget: 0}
			p := cfg.policy()
			q := p.AdmitQuota(prefillers, decoders, headroom, int(deferred))
			if q < 0 || (q > headroom && !(sched == SchedDecodePriority && q == 1)) {
				t.Fatalf("%s: quota %d outside [0, %d]", sched, q, headroom)
			}
			if sched == SchedDecodePriority && decoders > 0 && int(deferred) >= cfg.starveLimit() && q < 1 {
				t.Fatalf("decode-priority aged %d boundaries but still defers", deferred)
			}
		}
	})
}

// firstPrefiller returns the index of the oldest still-prefilling member.
func firstPrefiller(batch []*member) int {
	for i, m := range batch {
		if !m.decoding {
			return i
		}
	}
	return -1
}
