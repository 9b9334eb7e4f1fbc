package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/data"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// minOps is the fewest primary operations an untraced run measures:
	// 200 leaves ten samples beyond p95. The run overruns seconds to get
	// them.
	minOps int
	// tiny shrinks every input (smoke test).
	tiny bool
	// corrupt alters the first checked answer, to prove the gate trips.
	corrupt bool
	commit  string
	// results receives the run's full record as one JSON line; spans
	// receives a traced run's spans. Empty means do not write.
	results, spans string
}

// maxOverrun bounds how long a run keeps going past its seconds to reach
// minOps.
const maxOverrun = 60 * time.Second

// checksumEvery is the mean spacing of the answer checksum checks: each
// checked operation draws one with probability 1/checksumEvery (plus the
// first check of the run). Counts are checked on every operation.
const checksumEvery = 8

// localPassEvery is the spacing of the traced run's per-server local pass.
const localPassEvery = 4

type runner struct {
	cfg   runConfig
	wl    *workload
	insts []*instance

	// Reader-goroutine state: the checksum sampler and the corruption hook.
	sampler   *rand.Rand
	checks    int
	corrupted bool

	attempted, failed atomic.Int64
	mu                sync.Mutex
	problems          []string
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkRead checks one answer set against the instance's expectations for
// the database versions [vb, va] the read could have observed: its size
// always, its checksum on a seeded sample.
func (r *runner) checkRead(inst *instance, out []data.Tuple, err error, vb, va uint64) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("instance %d: exec: %v", inst.seed, err)
		return
	}
	if r.cfg.corrupt && !r.corrupted {
		r.corrupted = true
		out = corruptAnswer(out)
	}
	var sum *uint64
	if r.checks == 0 || r.cfg.tiny || r.sampler.Intn(checksumEvery) == 0 {
		s := checksum(out)
		sum = &s
	}
	r.checks++
	if !inst.exp.matches(vb, va, len(out), sum) {
		want, _ := inst.exp.at(va)
		r.fail("instance %d: wrong answer: %d tuples (checksum checked: %v) at versions %d..%d, want %d", inst.seed, len(out), sum != nil, vb, va, want.count)
	}
}

// corruptAnswer returns a copy of out with one value changed (or one tuple
// added, when out is empty).
func corruptAnswer(out []data.Tuple) []data.Tuple {
	c := append([]data.Tuple(nil), out...)
	if len(c) == 0 {
		return append(c, data.Tuple{-1})
	}
	t := append(data.Tuple(nil), c[0]...)
	t[0] ^= 1 << 40
	c[0] = t
	return c
}

// checkWrite checks an Advance against the writer's model: the standing
// result's size, tracked from the deltas, must be the expected size at the
// version the Advance reports.
func (r *runner) checkWrite(inst *instance, rd repro.ResultDelta, err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("instance %d: apply/advance: %v", inst.seed, err)
		return
	}
	inst.standCount += len(rd.Added) - len(rd.Removed)
	if want, ok := inst.exp.at(rd.Version); !ok || want.count != inst.standCount {
		r.fail("instance %d: standing result has %d tuples at version %d, want %d", inst.seed, inst.standCount, rd.Version, want.count)
	}
}

// phaseResult is what one measured loop observed.
type phaseResult struct {
	reads, writes []time.Duration
	wall          time.Duration
	// maxLoad and totalBits sum Result.MaxLoadBits/TotalBits over reads
	// (untraced phases only).
	maxLoad, totalBits float64
	rt0, rt1           runtimeReading
	s0, s1             sessionCounters
}

// sessionCounters sums the Sessions' own counters over all instances.
type sessionCounters struct {
	hits, misses, admitted, queued uint64
	advances, reseeds              uint64
	routed                         int64
}

func (r *runner) counters() sessionCounters {
	var c sessionCounters
	for _, inst := range r.insts {
		cs, as := inst.sess.CacheStats(), inst.sess.AdmissionStats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.admitted += as.Admitted
		c.queued += as.Queued
		if inst.standing != nil {
			st := inst.standing.Stats()
			c.advances += st.Advances
			c.reseeds += st.Reseeds
			c.routed += st.RoutedTuples
		}
	}
	return c
}

// phase runs the closed loop for at least d and minOps primary operations:
// one reading client on this goroutine, plus the writer goroutine on
// churn. With tr non-nil every operation goes through the traced replica.
func (r *runner) phase(ctx context.Context, tr *tracer, d time.Duration, minOps int) phaseResult {
	// Start every loop from a collected heap, so garbage left by set-up
	// (oracles, earlier phases) does not pace the loop's first collections.
	runtime.GC()
	var ph phaseResult
	ph.s0 = r.counters()
	ph.rt0 = readRuntime()
	start := time.Now()

	var stop atomic.Bool
	var wg sync.WaitGroup
	if r.wl.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.writes = r.writer(ctx, tr, &stop)
		}()
	}
	for i := 0; ; i++ {
		if el := time.Since(start); (el >= d && i >= minOps) || el >= d+maxOverrun {
			break
		}
		inst := r.insts[i%len(r.insts)]
		vb := inst.db.Version()
		var out []data.Tuple
		var err error
		var lat time.Duration
		if tr == nil {
			t0 := time.Now()
			var res repro.Result
			res, err = inst.sess.Exec(ctx, inst.q, inst.db, inst.opts...)
			lat = time.Since(t0)
			out = res.Output
			ph.maxLoad += float64(res.MaxLoadBits)
			ph.totalBits += float64(res.TotalBits)
		} else {
			root := tr.root("read")
			out, err = inst.rep.exec(tr, root, inst.db)
			tr.end(root)
			lat = time.Duration(root.End - root.Start)
			if err == nil && inst.rep.plan.strategy != inst.strategy {
				err = fmt.Errorf("traced replica planned %s, the Session %s", inst.rep.plan.strategy, inst.strategy)
			}
		}
		va := inst.db.Version()
		ph.reads = append(ph.reads, lat)
		r.checkRead(inst, out, err, vb, va)
		if tr != nil && i%localPassEvery == 0 {
			inst.rep.localPass(tr)
		}
	}
	stop.Store(true)
	wg.Wait()
	ph.wall = time.Since(start)
	ph.rt1 = readRuntime()
	ph.s1 = r.counters()
	return ph
}

// writer is the churn writer's closed loop: per operation it draws a
// 64-op delta, then times Apply plus Advance on the next instance.
func (r *runner) writer(ctx context.Context, tr *tracer, stop *atomic.Bool) []time.Duration {
	var ds []time.Duration
	for w := 0; !stop.Load(); w++ {
		inst := r.insts[w%len(r.insts)]
		d := inst.model.next()
		inst.exp.push(inst.model.ans)
		var rd repro.ResultDelta
		var err error
		t0 := time.Now()
		if tr == nil {
			if err = inst.db.Apply(d); err == nil {
				rd, err = inst.standing.Advance(ctx)
			}
		} else {
			root := tr.root("write")
			s := tr.child(root, "data.apply")
			err = inst.db.Apply(d)
			tr.end(s)
			if err == nil {
				s = tr.child(root, "core.advance")
				rd, err = inst.standing.Advance(ctx)
				tr.end(s)
			}
			tr.end(root)
		}
		ds = append(ds, time.Since(t0))
		r.checkWrite(inst, rd, err)
	}
	return ds
}

// run sets up the workload's instances, measures them, checks every answer
// and returns the run's record.
func run(ctx context.Context, cfg runConfig) (*record, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, wl: wl, sampler: rand.New(rand.NewSource(subSeed(cfg.seed, 7)))}
	defer func() {
		for _, inst := range r.insts {
			inst.close()
		}
	}()

	var setups []time.Duration
	for i := 0; i < wl.instances; i++ {
		inst, d, first, err := setupInstance(ctx, wl, subSeed(cfg.seed, 100+int64(i)), cfg.tiny)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up of instance %d: %w", wl.name, i, err)
		}
		r.insts = append(r.insts, inst)
		setups = append(setups, d)
		r.attempted.Add(1)
		if want := inst.exp.list[0]; first != want {
			r.fail("instance %d: first execution answered %+v, want %+v", inst.seed, first, want)
		}
	}

	seconds := time.Duration(cfg.seconds * float64(time.Second))
	rec := newRecord(cfg, r)
	m := rec.values
	rec.Meta.SetupSeconds = secondsOf(setups)
	m["setup_s"] = median(rec.Meta.SetupSeconds)
	rec.Meta.Samples["setup"] = len(setups)
	var tr *tracer
	if !cfg.trace {
		ph := r.phase(ctx, nil, seconds, cfg.minOps)
		r.untracedMetrics(ph, m, rec)
	} else {
		// A third of the time untraced, for the side-by-side overhead and
		// the runtime and Session counters; the rest traced.
		ph := r.phase(ctx, nil, seconds/3, 0)
		r.untracedMetrics(ph, m, rec)
		tr = newTracer()
		for _, inst := range r.insts {
			if err := r.startReplica(tr, inst); err != nil {
				return nil, err
			}
		}
		tph := r.phase(ctx, tr, seconds-seconds/3, 0)
		r.tracedMetrics(tr, tph, m, rec)
	}
	if wl.churn {
		for _, inst := range r.insts {
			r.attempted.Add(1)
			if err := inst.finalCheck(ctx); err != nil {
				r.fail("instance %d: final check: %v", inst.seed, err)
			}
		}
	}
	rec.Attempted, rec.Failed = r.attempted.Load(), r.failed.Load()
	rec.Correct = rec.Failed == 0
	rec.Problems = r.problems
	m["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.finish()

	if tr != nil && cfg.spans != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rec, nil
}

// startReplica builds an instance's traced replica; on cached workloads it
// plans once here, as the Session's plan cache did at set-up.
func (r *runner) startReplica(tr *tracer, inst *instance) error {
	inst.rep = &replica{q: inst.q, p: servers, seed: uint64(subSeed(inst.seed, 0)), multiRound: r.wl.multiRound, cached: !r.wl.noCache}
	if !inst.rep.cached {
		return nil
	}
	root := tr.root("plan")
	pl, err := inst.rep.buildPlan(tr, root, inst.db.Snapshot())
	tr.end(root)
	if err != nil {
		return err
	}
	inst.rep.plan = pl
	return nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// untracedMetrics fills the end-to-end metrics and the counters an untraced
// loop measures.
func (r *runner) untracedMetrics(ph phaseResult, m map[string]float64, rec *record) {
	n := float64(len(ph.reads))
	reads := millis(ph.reads)
	m["op_p50_ms"] = percentile(reads, 0.5)
	m["op_p95_ms"] = percentile(reads, 0.95)
	m["ops_per_s"] = ratio(n, sum(ph.reads).Seconds())
	m["alloc_mb_per_op"] = ratio(float64(ph.rt1.totalAlloc-ph.rt0.totalAlloc)/1e6, n)
	m["allocs_per_op"] = ratio(float64(ph.rt1.mallocs-ph.rt0.mallocs), n)
	m["peak_rss_mb"] = peakRSSMB()
	m["max_load_bits"] = ratio(ph.maxLoad, n)
	m["total_bits"] = ratio(ph.totalBits, n)

	writes := millis(ph.writes)
	m["write_p50_ms"] = percentile(writes, 0.5)
	m["write_p95_ms"] = percentile(writes, 0.95)
	m["writes_per_s"] = ratio(float64(len(ph.writes)), sum(ph.writes).Seconds())

	c0, c1 := ph.s0, ph.s1
	m["core.plan_cache_hit_ratio"] = ratio(float64(c1.hits-c0.hits), float64(c1.hits-c0.hits+c1.misses-c0.misses))
	m["core.admission_queued_frac"] = ratio(float64(c1.queued-c0.queued), float64(c1.admitted-c0.admitted))
	m["core.delta_tuples_routed"] = ratio(float64(c1.routed-c0.routed), float64(c1.advances-c0.advances))
	m["core.reseeds"] = float64(c1.reseeds - c0.reseeds)

	m["runtime.gc_cycles_per_op"] = ratio(float64(ph.rt1.numGC-ph.rt0.numGC), n)
	m["runtime.gc_pause_ms_per_op"] = ratio(float64(ph.rt1.pauseNs-ph.rt0.pauseNs)/1e6, n)
	m["runtime.gc_cpu_frac"] = ratio(ph.rt1.gcCPU-ph.rt0.gcCPU, ph.rt1.allCPU-ph.rt0.allCPU)

	rec.Meta.Samples["op"] = len(ph.reads)
	rec.Meta.Samples["write"] = len(ph.writes)
	rec.Meta.WallSeconds = ph.wall.Seconds()
}

// tracedMetrics fills the per-layer metrics from the traced loop's spans.
func (r *runner) tracedMetrics(tr *tracer, ph phaseResult, m map[string]float64, rec *record) {
	ops := foldOps(tr.spans)
	var reads, writes, passes []*opTrace
	var planning []*opTrace // operations that planned: cold reads and set-up plans
	for _, o := range ops {
		switch o.kind {
		case "read":
			reads = append(reads, o)
		case "write":
			writes = append(writes, o)
		case "local_pass":
			passes = append(passes, o)
		}
		if _, ok := o.self["core.plan"]; ok {
			planning = append(planning, o)
		}
	}
	// selfTime is the median per-operation self time of layer, in unit
	// nanoseconds; counted is the median per-operation count it recorded.
	selfTime := func(ops []*opTrace, layer string, unit float64) float64 {
		return layerMedian(ops, layer, func(o *opTrace) float64 { return float64(o.self[layer]) / unit })
	}
	counted := func(ops []*opTrace, layer string) float64 {
		return layerMedian(ops, layer, func(o *opTrace) float64 { return float64(o.count[layer]) })
	}
	const us, ms = 1e3, 1e6
	m["data.snapshot_us"] = selfTime(reads, "data.snapshot", us)
	m["data.apply_us"] = selfTime(writes, "data.apply", us)
	m["data.partition_ms"] = selfTime(reads, "data.partition", ms)
	m["core.advance_us"] = selfTime(writes, "core.advance", us)
	m["stats.collect_ms"] = selfTime(planning, "stats.collect", ms)
	m["stats.heavy_hitters"] = counted(planning, "stats.collect")
	m["stats.fingerprint_us"] = selfTime(reads, "stats.fingerprint", us)
	m["bounds.best_lower_ms"] = selfTime(planning, "bounds.best_lower", ms)
	m["hypercube.plan_ms"] = selfTime(planning, "hypercube.plan", ms)
	m["skew.plan_ms"] = selfTime(planning, "skew.plan", ms)
	m["rounds.plan_ms"] = selfTime(planning, "rounds.plan", ms)
	m["skew.virtual_servers"] = counted(planning, "skew.plan")
	m["mpc.round_ms"] = selfTime(reads, "mpc.round", ms)
	m["mpc.ns_per_routed_tuple"] = layerMedian(reads, "mpc.round", func(o *opTrace) float64 {
		return ratio(float64(o.self["mpc.round"]), float64(o.count["mpc.loads"]))
	})
	m["mpc.routed_tuples"] = counted(reads, "mpc.loads")
	m["mpc.replication"] = layerMedian(reads, "mpc.loads", func(o *opTrace) float64 { return o.ratio["mpc.loads"] })
	m["mpc.alloc_mb"] = layerMedian(reads, "mpc.round", func(o *opTrace) float64 { return float64(o.bytes["mpc.round"]) / 1e6 })
	m["join.compute_ms"] = selfTime(reads, "join.compute", ms)
	m["join.alloc_mb"] = layerMedian(reads, "join.compute", func(o *opTrace) float64 { return float64(o.bytes["join.compute"]) / 1e6 })
	m["exec.gather_ms"] = selfTime(reads, "exec.gather", ms)
	m["exec.pipeline_ms"] = selfTime(reads, "exec.pipeline", ms)
	m["trace.coverage"] = layerMedian(reads, "read", func(o *opTrace) float64 {
		return 1 - ratio(float64(o.self["read"]), float64(o.dur))
	})

	var smax, sp50, skew, rows []float64
	for _, o := range passes {
		var times []float64
		var total, top float64
		for _, s := range o.servers {
			times = append(times, float64(s[0])/ms)
			total += float64(s[1])
			top = max(top, float64(s[1]))
		}
		smax = append(smax, percentile(times, 1))
		sp50 = append(sp50, median(times))
		skew = append(skew, ratio(top, total/float64(len(o.servers))))
		rows = append(rows, total)
	}
	m["join.server_max_ms"] = median(smax)
	m["join.server_p50_ms"] = median(sp50)
	m["join.output_skew"] = median(skew)
	m["join.output_rows"] = median(rows)

	traced := millis(ph.reads)
	m["traced_op_p50_ms"] = percentile(traced, 0.5)
	m["traced_op_p95_ms"] = percentile(traced, 0.95)
	m["trace.overhead"] = ratio(m["traced_op_p50_ms"], m["op_p50_ms"])
	rec.Meta.Samples["traced_op"] = len(reads)
	rec.Meta.Samples["traced_write"] = len(writes)
	rec.Meta.Samples["local_pass"] = len(passes)
	rec.Meta.Samples["spans"] = len(tr.spans)
}
