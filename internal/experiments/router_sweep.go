package experiments

import (
	"strconv"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/workload"
)

// RouterSweep compares the cluster-routing policies — the default shared
// single-store topology, consistent chunk→replica hashing, and
// overlap-scored cache affinity — on multi-tenant bursty Zipf traffic
// over per-replica HBM/DRAM/slow-SSD hierarchies. Each of four tenants
// works a disjoint corpus that exceeds a replica's HBM tier by 6× (and
// exactly fills its DRAM tier), so where a request lands decides whether
// its chunks are resident at all: affinity learns the tenant→replica
// assignment from chunk overlap and routed-traffic popularity, hashing
// splits every tenant's corpus across owners (duplicating what the
// landing replica must re-insert), and the shared baseline keeps one
// store whose aggregate capacity is a quarter of the routed cluster's.
// The bottom tier is deliberately the paper's slow-disk device: with
// ~67 ms/chunk reads, CacheBlend's pipelining cannot hide a cold read
// behind ~12 ms of selective recompute, so cache locality — not just
// queue balance — is what moves TTFT.
func RouterSweep(requests int) *Table {
	if requests <= 0 {
		requests = 600
	}
	warmup := requests / 6
	const (
		tenants = 4
		pool    = 48 // chunks per tenant corpus: 6× a replica's HBM tier
		per     = 6
		skew    = 1.1
	)
	spec := timing.Mistral7B
	chunkBytes := spec.KVBytes(512)
	cfg := serve.Config{
		Spec:     spec,
		Scheme:   baselines.CacheBlend,
		Ratio:    0.15,
		Replicas: tenants,
		MaxBatch: 4,
		Tiers: []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: 8 * chunkBytes},
			{Device: device.CPURAM, Capacity: pool * chunkBytes},
			{Device: device.SlowSSD},
		},
		ChunkTokens: 512,
		QueryTokens: 128,
	}
	rates := []float64{2.0, 2.5}
	policies := []string{serve.RouterShared, serve.RouterHash, serve.RouterAffinity}

	t := &Table{
		Title: "Router sweep: replica-routing policy vs per-tenant rate on multi-tenant bursty Zipf (Mistral-7B, CacheBlend, per-replica HBM/DRAM/slow-SSD)",
		Header: []string{"router", "rate/tenant", "mean-ttft(s)", "p95-ttft(s)", "hbm-hit",
			"hit", "load-skew", "queue-skew", "dup(GB)"},
		Notes: []string{
			strconv.Itoa(tenants) + " tenants × disjoint " + strconv.Itoa(pool) + "-chunk corpora (Zipf " +
				f2(skew) + ", burst 4); each corpus is 6× a replica's 8-chunk HBM tier",
			"shared = one store at single-node capacity; hash/affinity give each of the " +
				strconv.Itoa(tenants) + " replicas its own full tier stack",
			"load-skew / queue-skew = coefficient of variation of per-replica busy time / mean queue depth (0 = balanced)",
			"dup = bytes resident on more than one replica store (the price of routing misses under partitioned caches)",
			"slow-SSD bottom tier: ~67 ms/chunk reads exceed what pipelining hides behind recompute, so residency drives TTFT",
			"requests per cell: " + strconv.Itoa(requests) + ", first " + strconv.Itoa(warmup) +
				" excluded as warmup; every cell averages 3 seeds",
		},
	}
	// Averaging a few seeds matters here: bursty multi-tenant merges are
	// noisy enough that one seed can reorder policies on a ~5% margin.
	// Every (policy, rate, seed) cell is an independent simulation, so the
	// whole grid runs on the worker pool and the per-row seed averages are
	// folded in grid order.
	seeds := []int64{1, 2, 3}
	cells := pmap(len(policies)*len(rates)*len(seeds), func(i int) serve.Result {
		policy := policies[i/(len(rates)*len(seeds))]
		rate := rates[i/len(seeds)%len(rates)]
		seed := seeds[i%len(seeds)]
		c := cfg
		c.Router = policy
		mix := make([]workload.Workload, tenants)
		for j := range mix {
			mix[j] = workload.Bursty{Rate: rate, Burst: 4,
				Chunks: workload.Chunks{Pool: pool, PerRequest: per, Skew: skew, Offset: j * pool}}
		}
		res, err := serve.RunWorkload(c, workload.MultiTenant{Tenants: mix}, requests, warmup, seed)
		if err != nil {
			panic("experiments: router sweep: " + err.Error())
		}
		return res
	})
	for pi, policy := range policies {
		for ri, rate := range rates {
			var ttft, p95, hbm, hit, lskew, qskew, dup float64
			for si := range seeds {
				res := cells[(pi*len(rates)+ri)*len(seeds)+si]
				ttft += res.MeanTTFT
				p95 += res.P95TTFT
				hbm += res.Tiers[0].HitRate
				hit += res.HitRate
				lskew += res.LoadSkew
				qskew += res.QueueSkew
				dup += float64(res.DuplicationBytes)
			}
			n := float64(len(seeds))
			t.Rows = append(t.Rows, []string{
				policy, f2(rate), f3(ttft / n), f3(p95 / n),
				pct(hbm / n), pct(hit / n), f2(lskew / n), f2(qskew / n),
				f2(dup / n / 1e9),
			})
		}
	}
	return t
}
