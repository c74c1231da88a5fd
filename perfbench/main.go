// Command perfbench is the repository's same-host benchmark. It runs one
// of three workloads — two serving simulations (serve-reuse, serve-churn)
// and the numeric RAG fusion path (fuse-rag) — for a fixed host time,
// checks every output, and prints each metric by name and unit. The last
// line of standard output is one JSON object for automated comparison.
//
//	bash perfbench/run.sh --workload serve-reuse --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (spans around the benchmark's calls, counters the
// program returns, a CPU profile rolled up by package) and writes the
// spans as a Chrome trace. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// outDir holds traces and profiles, relative to the working directory.
const outDir = ".bench_build/perfbench-out"

// A run builds its inputs at least setupReps times and for at least
// setupSeconds of host time; setup_s is the median.
const (
	setupReps    = 7
	setupSeconds = 1.0
)

// minRounds is the fewest rounds an untraced measurement takes, so that
// every operation's fastest repeat is taken over at least three.
const minRounds = 3

// bench drives one workload. Its timed operations come in rounds: one
// round is one pass over the whole input set, and every round repeats
// the first one exactly, so a run's host metrics do not depend on how
// many rounds fit in --seconds.
type bench interface {
	// setup builds the workload's inputs from the seed. It runs several
	// times (see setupReps); the last inputs are kept.
	setup(tr *tracer) error
	// prepare computes, outside every timed phase, the references the
	// output checks compare against.
	prepare(res *results) error
	// roundOps is the number of operations in one round.
	roundOps() int
	// startRound restores, untimed, the state the first round started
	// from.
	startRound() error
	// op runs one timed operation and returns the requests it served. A
	// non-nil error marks the operation failed.
	op(tr *tracer, id int) (int, error)
	// finish runs the untimed deterministic phases — simulated metrics,
	// answer quality, layer counters — and records them in res.
	finish(res *results) error
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase counts the operations of one phase of a run.
type phase struct {
	name              string
	attempted, failed int
}

// results collects everything a run reports.
type results struct {
	e2e, layer map[string]metric
	phases     []phase
	digests    []string
}

func (r *results) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *results) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// count records one phase's operation counts.
func (r *results) count(name string, attempted, failed int) {
	r.phases = append(r.phases, phase{name, attempted, failed})
}

// digest records a sha256 digest line for byte-for-byte comparison of
// runs of one seed.
func (r *results) digest(what, sum string) {
	r.digests = append(r.digests, fmt.Sprintf("%s sha256:%s", what, sum))
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve-reuse, serve-churn or fuse-rag")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "host seconds the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// newBench returns the named workload.
func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "serve-reuse":
		return newServeReuse(seed), nil
	case "serve-churn":
		return newServeChurn(seed), nil
	case "fuse-rag":
		return newFuseRAG(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-reuse, serve-churn or fuse-rag)", name)
}

func run(name string, seed int64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v: must be positive", seconds)
	}
	// One thread runs Go code, so the process's CPU time is the host time
	// the work takes (see cpuTime).
	runtime.GOMAXPROCS(1)
	b, err := newBench(name, seed)
	if err != nil {
		return err
	}
	res := &results{e2e: map[string]metric{}, layer: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v GOMAXPROCS %d\n", name, seed, seconds, traced, runtime.GOMAXPROCS(0))

	cal := &calibrator{}
	cal.sample()
	// Each setup starts from a collected heap, so neither its host time
	// nor the peak RSS depends on when the last one's garbage is found.
	var setups []float64
	for total := 0.0; len(setups) < setupReps || total < setupSeconds; {
		runtime.GC()
		start := cpuTime()
		if err := b.setup(tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
		total += setups[len(setups)-1]
		cal.maybe()
	}
	res.count("setup", len(setups), 0)
	if err := b.prepare(res); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	var m measurement
	if !traced {
		if m, err = measure(b, seconds, nil, 0, minRounds, cpuTime, cal); err != nil {
			return err
		}
		res.count("measure", m.ops, m.failed)
	} else {
		// Half untraced, half traced with spans and the CPU profile on:
		// the ratio of their per-request times is the tracing overhead.
		// Both halves read the wall clock: while the profiler's
		// process-wide timer runs, Linux reads the process CPU clock
		// only at scheduler ticks.
		plain, err := measure(b, seconds/2, nil, 0, 0, wallTime, cal)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		profile := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", name, seed))
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		m, err = measure(b, seconds/2, tr, plain.ops, 0, wallTime, nil)
		pprof.StopCPUProfile()
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close cpu profile: %w", err)
		}
		res.count("measure-untraced", plain.ops, plain.failed)
		res.count("measure-traced", m.ops, m.failed)
		res.setLayer("trace.overhead_ratio", plain.reqPerS()/m.reqPerS(), "ratio")
		by, err := rollupProfile(profile)
		if err != nil {
			return err
		}
		reportRollup(res, by, m.requests)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := tr.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("trace %s (%d spans), profile %s\n", path, len(tr.spans), profile)
	}
	// Host times are scaled to the development host's fastest clock.
	slow := cal.slowdown()
	lat := m.latencies()
	setup, rate, p50, p99 := median(setups), m.reqPerS(), percentile(lat, 50), percentile(lat, 99)
	res.setE2E("setup_s", setup/slow, "s")
	res.setE2E("req_per_s", rate*slow, "1/s")
	res.setE2E("req_ms_p50", p50/slow, "ms")
	res.setE2E("req_ms_p99", p99/slow, "ms")
	res.setE2E("alloc_bytes_per_req", float64(m.alloc)/float64(m.requests), "B")
	res.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Printf("host time: %d rounds of %d operations; all rounds: %.4g req/s by the measuring clock, %.4g req/s by wall clock\n",
		m.rounds, len(m.reqs), float64(m.requests)/m.timed.Seconds(), float64(m.requests)/m.wall.Seconds())
	fmt.Printf("host slowdown %.4f (calibration loop fastest %v of %d samples, nominal %v); unscaled: setup_s %.6g req_per_s %.6g req_ms_p50 %.6g req_ms_p99 %.6g\n",
		slow, cal.best, cal.n, calibNominal, setup, rate, p50, p99)

	if err := b.finish(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: finish:", err)
		res.count("finish", 1, 1)
	}
	spanLayers(res, tr)
	return report(res, traced)
}

// measurement is one timed phase.
type measurement struct {
	rounds   int
	requests int // over all rounds
	ops      int
	failed   int
	cost     []float64 // seconds of each operation, round after round
	reqs     []int     // requests each operation of a round serves
	gc       []float64 // seconds each round spent collecting garbage
	alloc    uint64    // bytes the operations allocated
	// The whole phase by the measuring clock and by the wall clock,
	// printed for comparison.
	timed, wall time.Duration
}

// reqPerS is one round's requests over the host time of a round made of
// the fastest repeat of each operation and of the collections.
func (m measurement) reqPerS() float64 {
	total, requests := minimum(m.gc), 0
	for i, c := range roundMins(m.cost, len(m.reqs)) {
		total += c
		requests += m.reqs[i]
	}
	return float64(requests) / total
}

// latencies returns each operation's host ms per request, taken at its
// fastest repeat.
func (m measurement) latencies() []float64 {
	lat := roundMins(m.cost, len(m.reqs))
	for i := range lat {
		lat[i] *= 1e3 / float64(m.reqs[i])
	}
	return lat
}

// measure runs whole rounds of b's operations until `seconds` of wall
// time have passed and at least leastRounds rounds have run, timing
// them with clock and sampling cal (if not nil) between them. Each
// round starts, untimed, from a collected heap and from the state the
// first round started from, so every round repeats the same work. Inside
// a round the garbage collector runs only between operations (see
// collector): its host time counts toward the round's throughput, not
// toward the latency of the operation before it.
func measure(b bench, seconds float64, tr *tracer, firstID, leastRounds int, clock func() time.Duration, cal *calibrator) (measurement, error) {
	var m measurement
	var before, after runtime.MemStats
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gc := newCollector()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for m.rounds == 0 || time.Since(start) < budget || m.rounds < leastRounds {
		if err := b.startRound(); err != nil {
			return m, fmt.Errorf("start round: %w", err)
		}
		gc.collect()
		runtime.ReadMemStats(&before)
		var collecting time.Duration
		for i := 0; i < b.roundOps(); i++ {
			w, t := time.Now(), clock()
			n, err := safeOp(b, tr, firstID+m.ops)
			d := clock() - t
			if gc.due() {
				t := clock()
				gc.collect()
				collecting += clock() - t
			}
			cal.maybe()
			m.wall += time.Since(w)
			m.timed += d
			m.ops++
			if n < 1 {
				n = 1
			}
			if m.rounds == 0 {
				m.reqs = append(m.reqs, n)
			}
			m.requests += n
			m.cost = append(m.cost, d.Seconds())
			if err != nil {
				m.failed++
				if m.failed <= 3 {
					fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", firstID+m.ops-1, err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		m.alloc += after.TotalAlloc - before.TotalAlloc
		m.timed += collecting
		m.gc = append(m.gc, collecting.Seconds())
		m.rounds++
	}
	return m, nil
}

// minHeap is the smallest heap the collector lets grow before it
// collects, as the Go runtime's own pacer does.
const minHeap = 4 << 20

// collector collects garbage when GOGC=100 would — once the bytes
// allocated since the last collection reach the heap that collection
// left live, and at least minHeap — but only when asked between
// operations. The points fall where the workload's allocations put
// them, not where the runtime's pacer would mid-operation, so every
// round collects after the same operations.
type collector struct {
	samples []metrics.Sample
	last    uint64 // cumulative heap allocation at the last collection
}

func newCollector() *collector {
	return &collector{samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}}
}

// due reports whether a collection is due.
func (c *collector) due() bool {
	metrics.Read(c.samples)
	return c.samples[0].Value.Uint64()-c.last >= max(c.samples[1].Value.Uint64(), minHeap)
}

// collect runs a full collection, sweep included.
func (c *collector) collect() {
	runtime.GC()
	metrics.Read(c.samples)
	c.last = c.samples[0].Value.Uint64()
}

// safeOp runs one operation, turning a panic into a failure.
func safeOp(b bench, tr *tracer, id int) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return b.op(tr, id)
}

// peakRSSMB returns the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spanLayers reports the mean duration of each span the benchmark
// recorded around its calls (zero for a layer the workload never calls).
func spanLayers(res *results, tr *tracer) {
	for _, s := range []struct {
		span, metric string
		unit         time.Duration
	}{
		{"workload.generate", "workload.generate_ms", time.Millisecond},
		{"serve.run", "serve.run_ms", time.Millisecond},
		{"retrieval.topk", "retrieval.topk_us", time.Microsecond},
		{"kvstore.get", "kvstore.get_us", time.Microsecond},
		{"kvstore.put", "kvstore.put_us", time.Microsecond},
		{"model.prefill", "model.prefill_ms", time.Millisecond},
		{"blend.fuse", "blend.fuse_ms", time.Millisecond},
		{"qamodel.answer", "qamodel.answer_ms", time.Millisecond},
	} {
		v := tr.meanDuration(s.span, s.unit)
		unit := "ms"
		if s.unit == time.Microsecond {
			unit = "us"
		}
		res.setLayer(s.metric, v, unit)
	}
}

// rolledPackages are the packages whose self time is reported by name;
// every other repro package is summed into "other".
var rolledPackages = []string{"sim", "serve", "kvstore", "workload", "tensor", "model", "blend", "rope", "kvcache", "retrieval", "runtime"}

// reportRollup reports host self time per package per request.
func reportRollup(res *results, by map[string]time.Duration, requests int) {
	named := map[string]bool{}
	for _, p := range rolledPackages {
		named[p] = true
		res.setLayer(p+".self_us_per_req", float64(by[p])/float64(time.Microsecond)/float64(requests), "us")
	}
	var other time.Duration
	for _, p := range sortedKeys(by) {
		fmt.Printf("profile %-10s %10.1f ms\n", p, float64(by[p])/float64(time.Millisecond))
		if !named[p] {
			other += by[p]
		}
	}
	res.setLayer("other.self_us_per_req", float64(other)/float64(time.Microsecond)/float64(requests), "us")
}

// report prints every phase, digest and metric, then the JSON result
// line: end-to-end metrics untraced, per-layer metrics traced.
func report(res *results, traced bool) error {
	attempted, failed := 0, 0
	for _, p := range res.phases {
		fmt.Printf("phase %-18s attempted %6d succeeded %6d failed %d\n", p.name, p.attempted, p.attempted-p.failed, p.failed)
		attempted += p.attempted
		failed += p.failed
	}
	for _, d := range res.digests {
		fmt.Println("digest", d)
	}
	fmt.Printf("fail_ratio %g\n", float64(failed)/float64(attempted))
	for _, set := range []struct {
		kind string
		m    map[string]metric
	}{{"end-to-end", res.e2e}, {"per-layer", res.layer}} {
		for _, k := range sortedKeys(set.m) {
			fmt.Printf("%-10s %-32s %.6g %s\n", set.kind, k, set.m[k].Value, set.m[k].Unit)
		}
	}
	metrics := res.e2e
	if traced {
		metrics = res.layer
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
