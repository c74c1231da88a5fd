package main

import (
	"errors"
	"testing"
	"time"
)

// TestRoundMins checks that each operation's host time is the fastest
// of its own samples, one per round, so that time another tenant of the
// host took in one round does not reach the percentiles.
func TestRoundMins(t *testing.T) {
	// Three rounds of four operations; operation 2 is slowed in round 1
	// only, operation 3 is slow in every round.
	xs := []float64{
		1, 2, 3, 9,
		1, 2, 30, 9,
		1.5, 2, 3, 9.5,
	}
	got := roundMins(xs, 4)
	want := []float64{1, 2, 3, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("roundMins = %v, want %v", got, want)
		}
	}
	if p := percentile(got, 99); p != 9 {
		t.Errorf("p99 = %v, want the consistently slow operation's 9", p)
	}
	if m := minimum([]float64{3, 1.5, 2}); m != 1.5 {
		t.Errorf("minimum = %v, want 1.5", m)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{50: 3, 20: 1, 21: 2, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestMaxRateAtSLO(t *testing.T) {
	threshold := func(limit float64, calls *[]float64) func(float64) (bool, error) {
		return func(rate float64) (bool, error) {
			*calls = append(*calls, rate)
			return rate <= limit, nil
		}
	}
	ladder := []float64{2, 3, 4, 5, 6}

	var calls []float64
	got, err := maxRateAtSLO(ladder, 4, threshold(3.3, &calls))
	if err != nil || got != 3.25 {
		t.Fatalf("limit 3.3: got %v, %v; want 3.25", got, err)
	}
	// The walk stops at the first failing rung and bisects [3, 4].
	want := []float64{2, 3, 4, 3.5, 3.25, 3.375, 3.3125}
	if len(calls) != len(want) {
		t.Fatalf("probed %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("probed %v, want %v", calls, want)
		}
	}

	calls = nil
	if got, _ := maxRateAtSLO(ladder, 4, threshold(100, &calls)); got != 6 || len(calls) != 5 {
		t.Errorf("every rung passes: got %v after %d probes, want the top rung 6 after 5", got, len(calls))
	}
	calls = nil
	if got, _ := maxRateAtSLO(ladder, 4, threshold(1, &calls)); got != 0 || len(calls) != 1 {
		t.Errorf("first rung fails: got %v after %d probes, want 0 after 1", got, len(calls))
	}
	boom := errors.New("boom")
	if _, err := maxRateAtSLO(ladder, 4, func(float64) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

// syntheticTraces is `go tool pprof -traces` output with one stack of
// each attribution case.
const syntheticTraces = `File: perfbench-bin
Type: cpu
Duration: 2s, Total samples = 1.53s (76.50%)
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             runtime.newobject
             repro/internal/kvstore.(*Store).Put
             repro/internal/serve.(*cluster).serviceTime
             main.(*serveBench).op
-----------+-------------------------------------------------------
      20ms   repro/internal/sim.(*Clock).handoff
             repro/internal/serve.(*cluster).run.func1
-----------+-------------------------------------------------------
      30ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     1.20s   crypto/sha256.block
             crypto/sha256.Sum256
             repro/internal/chunk.Hash
             main.(*ragBench).op
-----------+-------------------------------------------------------
     250ms   repro/internal/tensor.MatMul
             repro/internal/model.(*Model).ForwardLayerPartial
             repro/internal/blend.Fuse
-----------+-------------------------------------------------------
      20ms   main.(*ragBench).op
             main.measure
-----------+-------------------------------------------------------
`

func TestAttribute(t *testing.T) {
	got, err := attribute(syntheticTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"kvstore": 10 * time.Millisecond,   // stdlib and runtime frames count toward the repro caller
		"sim":     20 * time.Millisecond,   // the innermost repro frame wins over its serve caller
		"runtime": 50 * time.Millisecond,   // no repro frame: GC, and benchmark-only stacks
		"chunk":   1200 * time.Millisecond, // sha256 under chunk.Hash
		"tensor":  250 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for pkg, d := range want {
		if got[pkg] != d {
			t.Errorf("%s: got %v, want %v", pkg, got[pkg], d)
		}
	}
}

func TestAttributeRejectsMalformedValue(t *testing.T) {
	bad := "-----------+----\n      ten   repro/internal/sim.Run\n"
	if _, err := attribute(bad); err == nil {
		t.Error("malformed sample value accepted")
	}
}
