package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/workload"
)

// SLO targets shared by every modelled deployment.
const (
	sloTTFT = 2.0  // seconds
	sloTBT  = 0.05 // seconds, mean time between tokens
)

// ladderBisections refines sim_max_rate_at_slo between the last passing
// and first failing ladder rung.
const ladderBisections = 4

// deployment is a modelled serving deployment and the request streams it
// is measured on.
type deployment struct {
	// config returns the deployment for a stream; membership events are
	// placed relative to the stream's span.
	config func(reqs []workload.Request) serve.Config
	// generate returns n requests offered at rate (req/s) from the seed.
	generate func(rate float64, n int, seed int64) []workload.Request
	opRate   float64   // the operating point, req/s
	reps     int       // independent streams every simulated metric averages over
	ladder   []float64 // ascending offered rates for sim_max_rate_at_slo
	simN     int       // requests per simulated-metric run
}

// stream generates n requests and rescales their arrivals so the mean
// rate is exactly rate: seeds then vary burst placement and chunk
// choice, not the load level, which the simulated metrics are most
// sensitive to near saturation.
func (d deployment) stream(rate float64, n int, seed int64) []workload.Request {
	reqs := d.generate(rate, n, seed)
	scale := float64(len(reqs)) / rate / reqs[len(reqs)-1].Arrival
	for i := range reqs {
		reqs[i].Arrival *= scale
	}
	return reqs
}

// opSeed is the seed of the rep-th simulated-metric stream.
func opSeed(seed int64, rep int) int64 { return seed + int64(rep)*1_000_033 }

// warmup is the number of leading requests a run excludes from its
// statistics.
func warmup(reqs []workload.Request) int { return len(reqs) / 5 }

// simulate runs the deployment on reqs and checks the Result.
func (d deployment) simulate(reqs []workload.Request, seed int64) (serve.Result, string, error) {
	res, err := serve.RunWorkload(d.config(reqs), workload.Trace{Reqs: reqs}, len(reqs), warmup(reqs), seed)
	if err != nil {
		return res, "", err
	}
	sum, err := checkResult(res)
	return res, sum, err
}

// checkResult verifies a Result's conservation laws and returns the
// sha256 of its JSON encoding (which fails on any NaN or infinity).
func checkResult(res serve.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("result not encodable (NaN or infinity?): %w", err)
	}
	var hits int64
	for _, t := range res.Tiers {
		hits += t.Hits
	}
	if hits+res.Misses != res.Lookups {
		return "", fmt.Errorf("tier hits %d + misses %d != lookups %d", hits, res.Misses, res.Lookups)
	}
	if res.Tenants != nil {
		n := 0
		for _, t := range res.Tenants {
			n += t.Requests
		}
		if n != res.Requests {
			return "", fmt.Errorf("tenant requests sum to %d, result has %d", n, res.Requests)
		}
	}
	if met := int64(math.Round(res.SLOAttainment * float64(res.Requests))); met+res.SLOViolations != int64(res.Requests) {
		return "", fmt.Errorf("SLO met %d + violations %d != requests %d", met, res.SLOViolations, res.Requests)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// keepsUp reports whether completions kept up with arrivals: the
// measured window's completion rate is at least 95% of the rate its
// requests arrived at, so no backlog is left to drain.
func keepsUp(res serve.Result, reqs []workload.Request) bool {
	w := warmup(reqs)
	offered := float64(len(reqs)-w) / (reqs[len(reqs)-1].Arrival - reqs[w].Arrival)
	return res.Throughput >= 0.95*offered
}

// simMetrics runs the deployment at its operating point and up its rate
// ladder, outside every timed phase, and records the simulated
// end-to-end metrics, the modelled-layer counters and every Result
// digest. Every offered rate is simulated on reps independent streams
// and the metrics average them. ops holds the operating point's
// pre-generated streams, or nil to generate them here.
func (d deployment) simMetrics(res *results, seed int64, ops [][]workload.Request) error {
	runs, failed := 0, 0
	defer func() { res.count("simulate", runs, failed) }()
	// at simulates every stream at one rate; meets reports the ladder
	// criterion over them: mean attainment of at least 0.9, and no
	// stream leaving a backlog.
	at := func(rate float64) (mean serve.Result, first serve.Result, meets bool, err error) {
		meets = true
		for rep := 0; rep < d.reps; rep++ {
			seed := opSeed(seed, rep)
			var reqs []workload.Request
			if rate == d.opRate && rep < len(ops) {
				reqs = ops[rep]
			} else {
				reqs = d.stream(rate, d.simN, seed)
			}
			runs++
			r, sum, err := d.simulate(reqs, seed)
			if err != nil {
				failed++
				return mean, first, false, fmt.Errorf("simulate at %g req/s: %w", rate, err)
			}
			res.digest(fmt.Sprintf("serve.Result rate=%g n=%d seed=%d", rate, len(reqs), seed), sum)
			if rep == 0 {
				first = r
			}
			k := 1 / float64(d.reps)
			mean.MeanTTFT += r.MeanTTFT * k
			mean.P95TTFT += r.P95TTFT * k
			mean.MeanTBT += r.MeanTBT * k
			mean.P95TBT += r.P95TBT * k
			mean.SLOAttainment += r.SLOAttainment * k
			meets = meets && keepsUp(r, reqs)
		}
		return mean, first, meets && mean.SLOAttainment >= 0.9, nil
	}

	op, first, opMeets, err := at(d.opRate)
	if err != nil {
		return err
	}
	maxRate, err := maxRateAtSLO(d.ladder, ladderBisections, func(rate float64) (bool, error) {
		if rate == d.opRate {
			return opMeets, nil
		}
		_, _, meets, err := at(rate)
		return meets, err
	})
	if err != nil {
		return err
	}
	res.setE2E("sim_ttft_mean_ms", op.MeanTTFT*1e3, "ms")
	res.setE2E("sim_ttft_p95_ms", op.P95TTFT*1e3, "ms")
	res.setE2E("sim_tbt_mean_ms", op.MeanTBT*1e3, "ms")
	res.setE2E("sim_slo_attainment", op.SLOAttainment, "share")
	res.setE2E("sim_max_rate_at_slo", maxRate, "1/s")
	fmt.Printf("sim operating point %g req/s, first stream: %s slo=%.4f\n", d.opRate, first, first.SLOAttainment)
	fmt.Printf("sim operating point %g req/s, mean of %d streams: p95_tbt=%.4fs\n", d.opRate, d.reps, op.P95TBT)
	servingCounters(res, first, d.simN)
	return nil
}

// servingCounters reports the modelled-layer counters of the operating
// point's Result. Whole-run counts are divided by the n simulated
// requests, post-warmup sums by the measured request count.
func servingCounters(res *results, op serve.Result, n int) {
	measured := float64(op.Requests)
	var demotions int64
	for _, t := range op.Tiers {
		demotions += t.Demotions
	}
	accuracy := 0.0
	if op.PrefetchIssued > 0 {
		accuracy = float64(op.PrefetchHits) / float64(op.PrefetchIssued)
	}
	util := 0.0
	for _, u := range op.ReplicaUtil {
		util += u / float64(len(op.ReplicaUtil))
	}
	res.setLayer("kvstore.hit_rate", op.HitRate, "share")
	res.setLayer("kvstore.hbm_hit_rate", op.HBMHitRate, "share")
	res.setLayer("kvstore.tier_stall_ms_per_req", op.TierStallTime*1e3/measured, "ms")
	res.setLayer("kvstore.demotions_per_req", float64(demotions)/float64(n), "count")
	res.setLayer("prefetch.accuracy", accuracy, "share")
	res.setLayer("prefetch.wasted_mb_per_req", float64(op.PrefetchWastedBytes)/1e6/float64(n), "MB")
	res.setLayer("serve.queue_depth_mean", op.MeanQueueDepth, "count")
	res.setLayer("serve.prefill_delay_p95_ms", op.P95PrefillDelay*1e3, "ms")
	res.setLayer("serve.batch_mean", op.MeanBatch, "count")
	res.setLayer("serve.stall_ms_per_req", op.StallTime*1e3/measured, "ms")
	res.setLayer("serve.replica_util_mean", util, "share")
	res.setLayer("router.load_skew", op.LoadSkew, "ratio")
	res.setLayer("router.duplication_mb", float64(op.DuplicationBytes)/1e6, "MB")
	res.setLayer("membership.recovery_s", op.RecoveryTime, "s")
	res.setLayer("membership.rewarm_stall_ms", op.ReWarmStall*1e3, "ms")
}

// serveBench is a serving-simulation workload: the timed operation is
// one serve.RunWorkload call over one of several pre-generated streams,
// taken in turn, so a run's host cost averages over the streams' burst
// and chunk patterns.
type serveBench struct {
	seed    int64
	dep     deployment
	streams int // timed streams
	hostN   int // requests per timed stream

	timed [][]workload.Request
	ops   [][]workload.Request // operating-point streams for the simulated metrics
	sums  []string             // first Result digest of each timed stream
	next  int                  // the round's next timed stream
}

// reuseDeployment is one node's hot path: a high-reuse Zipf stream on a
// shared tier stack, with routing, prefetch and membership switched off.
func reuseDeployment() deployment {
	spec := timing.Mistral7B
	chunkBytes := spec.KVBytes(512)
	cfg := serve.Config{
		Spec: spec, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Replicas: 2, MaxBatch: 8, ChunkTokens: 512, QueryTokens: 32,
		Tiers: []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: 64 * chunkBytes},
			{Device: device.CPURAM, Capacity: 512 * chunkBytes},
			{Device: device.NVMeSSD},
		},
		Router: serve.RouterShared, PrefetchPolicy: serve.PrefetchOff,
		Sched: serve.SchedFIFO, SLOTTFT: sloTTFT, SLOTBT: sloTBT,
	}
	return deployment{
		config: func([]workload.Request) serve.Config { return cfg },
		generate: func(rate float64, n int, seed int64) []workload.Request {
			return workload.Poisson{Rate: rate,
				Chunks: workload.Chunks{Pool: 2000, PerRequest: 6, Skew: 0.9},
				Decode: workload.Decode{Mean: 32}}.Generate(n, seed)
		},
		opRate: 4, reps: 1, ladder: []float64{2, 3, 4, 5, 6}, simN: 20000,
	}
}

// newServeReuse times the reuse deployment's hot path.
func newServeReuse(seed int64) *serveBench {
	return &serveBench{seed: seed, streams: 32, hostN: 500, dep: reuseDeployment()}
}

// newServeChurn uses the same store layer write-heavily: a routed
// four-node cluster with per-node tier stacks, predictive prefetch,
// chunked prefill, bursty drifting tenants, a node kill and a node join.
func newServeChurn(seed int64) *serveBench {
	spec := timing.Mistral7B
	chunkBytes := spec.KVBytes(512)
	base := serve.Config{
		Spec: spec, Scheme: baselines.CacheBlend, Ratio: 0.15,
		Replicas: 4, MaxBatch: 8, ChunkTokens: 512, QueryTokens: 32,
		Tiers: []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: 16 * chunkBytes},
			{Device: device.CPURAM, Capacity: 128 * chunkBytes},
			{Device: device.SlowSSD, Capacity: 4096 * chunkBytes},
		},
		Router: serve.RouterAffinity, PrefetchPolicy: serve.PrefetchPredictive,
		Sched: serve.SchedChunkedPrefill, SLOTTFT: sloTTFT, SLOTBT: sloTBT,
	}
	const tenants = 4
	return &serveBench{seed: seed, streams: 64, hostN: 250, dep: deployment{
		config: func(reqs []workload.Request) serve.Config {
			span := reqs[len(reqs)-1].Arrival
			cfg := base
			cfg.Events = []serve.MembershipEvent{{At: 0.4 * span, Kill: 1}, {At: 0.7 * span, Join: 1}}
			return cfg
		},
		generate: func(rate float64, n int, seed int64) []workload.Request {
			mix := make([]workload.Workload, tenants)
			for i := range mix {
				mix[i] = workload.Bursty{Rate: rate / tenants, Burst: 6,
					Chunks: workload.Chunks{Pool: 4000, PerRequest: 6, Skew: 0.4, Offset: i * 4000, DriftPeriod: 30},
					Decode: workload.Decode{Mean: 32}}
			}
			return workload.MultiTenant{Tenants: mix}.Generate(n, seed)
		},
		opRate: 1, reps: 3, ladder: []float64{0.5, 1, 1.5, 2, 3}, simN: 6000,
	}}
}

// setup generates the timed streams and the operating point's streams.
func (b *serveBench) setup(tr *tracer) error {
	s := tr.begin("workload.generate", -1, -1)
	defer tr.end(s)
	b.timed, b.ops = b.timed[:0], b.ops[:0]
	for i := 0; i < b.streams; i++ {
		reqs := b.dep.stream(b.dep.opRate, b.hostN, timedSeed(b.seed, i))
		if len(reqs) != b.hostN {
			return fmt.Errorf("generated %d requests, want %d", len(reqs), b.hostN)
		}
		b.timed = append(b.timed, reqs)
	}
	for rep := 0; rep < b.dep.reps; rep++ {
		b.ops = append(b.ops, b.dep.stream(b.dep.opRate, b.dep.simN, opSeed(b.seed, rep)))
	}
	b.sums, b.next = make([]string, b.streams), 0
	return nil
}

// timedSeed is the seed of the i-th timed stream.
func timedSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

func (b *serveBench) prepare(*results) error { return nil }

func (b *serveBench) roundOps() int { return b.streams }

// startRound starts again from the first timed stream.
func (b *serveBench) startRound() error {
	b.next = 0
	return nil
}

// op simulates the next timed stream; every repeat of a stream must
// reproduce its first Result byte for byte.
func (b *serveBench) op(tr *tracer, id int) (int, error) {
	i := b.next
	b.next++
	reqs := b.timed[i]
	s := tr.begin("serve.run", -1, id)
	_, sum, err := b.dep.simulate(reqs, timedSeed(b.seed, i))
	tr.end(s)
	if err != nil {
		return len(reqs), err
	}
	if b.sums[i] == "" {
		b.sums[i] = sum
	} else if sum != b.sums[i] {
		return len(reqs), fmt.Errorf("stream %d: result digest %s differs from its first run's %s", i, sum, b.sums[i])
	}
	return len(reqs), nil
}

func (b *serveBench) finish(res *results) error {
	all := sha256.Sum256([]byte(strings.Join(b.sums, "\n")))
	res.digest(fmt.Sprintf("serve.Result of %d timed streams n=%d", b.streams, b.hostN), hex.EncodeToString(all[:]))
	if err := b.dep.simMetrics(res, b.seed, b.ops); err != nil {
		return err
	}
	// Every workload reports every end-to-end metric. The deployment
	// serves CacheBlend at r = 0.15, so answer_* repeat, untimed, the
	// fuse-rag quality pass with the same ratio on this seed.
	return ragQuality(res, b.seed)
}
