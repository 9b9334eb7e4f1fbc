// Package core is the top of the stack: a one-round MPC query-evaluation
// engine that puts the paper's pieces together. Given a conjunctive query,
// a database, and p servers, the engine collects statistics, decides which
// algorithm applies — plain HyperCube on skew-free data (§3), the
// specialized skew join for the two-relation join (§4.1), or the general
// bin-combination algorithm (§4.2) — computes the matching lower bound
// (Theorems 3.5/4.7), and executes the plan on the simulator.
package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/stats"
)

// Strategy identifies which of the paper's algorithms a plan uses.
type Strategy int

// Strategies.
const (
	// HyperCube is the §3.1 algorithm with LP-optimal shares (skew-free
	// data, simple statistics).
	HyperCube Strategy = iota
	// SkewJoin is the §4.1 algorithm specialized for
	// q(x,y,z) = S1(x,z), S2(y,z) with heavy hitters.
	SkewJoin
	// BinCombination is the general §4.2 algorithm for arbitrary
	// conjunctive queries with heavy hitters.
	BinCombination
	// MultiRound is the traditional one-join-per-round pipeline (skew-aware
	// per-step heavy-hitter grids), executed through exec.RunPipeline with
	// intermediates resident on the servers between rounds.
	MultiRound
)

func (s Strategy) String() string {
	switch s {
	case HyperCube:
		return "hypercube"
	case SkewJoin:
		return "skew-join"
	case BinCombination:
		return "bin-combination"
	case MultiRound:
		return "multi-round"
	}
	return "?"
}

// DefaultPlanCacheCapacity bounds the plan cache when the engine does not
// set an explicit capacity: enough for a realistic working set of
// (query, database-version) pairs, small enough that a churn of one-off
// fingerprints cannot grow the engine without bound.
const DefaultPlanCacheCapacity = 64

// Config is the immutable engine configuration: everything the pre-Session
// API exposed as mutable Engine fields, validated once at construction so
// a served engine never reads a field another goroutine might be writing.
type Config struct {
	// P is the physical server count (≥ 2).
	P int
	// Seed pins every hash family the engine derives.
	Seed uint64
	// PlanCacheCapacity bounds the number of cached plans; 0 means
	// DefaultPlanCacheCapacity, negative means unbounded.
	PlanCacheCapacity int
	// ConsiderMultiRound adds the multi-round pipeline to plan selection:
	// when its predicted cost undercuts the chosen one-round strategy's,
	// the engine plans, caches, and executes the pipeline instead.
	ConsiderMultiRound bool
	// DriftFactor enables adaptive re-planning for serving-mode executions
	// (ExecOptions.Serving): when a run's realized max load exceeds
	// DriftFactor × the plan's predicted bits and the database content has
	// changed since the plan was built, the cached entry is marked stale
	// and the next execution replans against current statistics
	// (Result.Replanned reports it). 0 disables; values in (0, 1) are
	// rejected — they would demand realized loads below the prediction.
	DriftFactor float64
	// ClusterPoolDepth bounds the engine's cluster pool per size bucket;
	// 0 means exec.DefaultClusterPoolDepth.
	ClusterPoolDepth int
	// ResidentChunkTuples caps the rows one send part carries out of a
	// resident fragment when pipelines shuffle intermediates
	// server-to-server; 0 means mpc.DefaultResidentChunkTuples.
	ResidentChunkTuples int
	// BackgroundReplan moves drift-triggered replanning off the request
	// path: a stale cache entry keeps serving (a physical plan stays correct
	// for any content, merely load-suboptimal) while a background worker
	// rebuilds it against a fresh snapshot's statistics and swaps the new
	// plan in. Off, the next execution after a drift mark replans inline and
	// reports Result.Replanned. Engines with this set own a worker goroutine;
	// Close stops it.
	BackgroundReplan bool
	// Faults, when non-nil, arms a seeded fault-injection schedule for every
	// execution (see mpc.Faults). Injected faults are recovered at round
	// granularity within the Retry budget — a torn round is re-driven in
	// place and a failed compute phase re-runs only the failed servers —
	// and surface as typed errors (mpc.ErrTornRound, mpc.ErrComputeFailed)
	// once the budget is spent. Result.Recovery reports what recovery an
	// execution needed.
	Faults *mpc.Faults
	// Retry bounds per-execution fault recovery: attempts, capped
	// exponential backoff with deterministic jitter, and an injectable
	// sleep hook (see Retry). The zero value is the default policy.
	Retry Retry
	// BreakerThreshold arms the engine's circuit breaker: after this many
	// consecutive executions ending in cluster-level fault errors the
	// engine fails fast with ErrCircuitOpen, admitting one probe execution
	// at a time until a probe succeeds (see HealthStats). 0 disables the
	// breaker.
	BreakerThreshold int
	// DisableAutoPartition turns off the lazy heavy-partition layout
	// maintenance serving executions drive by default: after planning, the
	// engine calls data.Database.EnsurePartitioned for every (relation,
	// attribute) the plan's router can span-route, so heavy runs ship
	// wholesale on subsequent executions. Rebuilds are counted in
	// CacheStats.Repartitions.
	DisableAutoPartition bool
}

// Engine evaluates conjunctive queries in one communication round on p
// simulated servers.
//
// Execute caches physical plans keyed by (query canonical form, database
// fingerprint, p, forced strategy): repeated calls on unchanged inputs —
// the heavy repeated-traffic case — skip statistics collection, LP
// solving, and heavy-hitter planning. The fingerprint itself is maintained
// incrementally by the relations (data.Relation.ContentSum), so the
// cache-hit path costs O(relations), not a database rescan. The cache is a
// bounded LRU (DefaultPlanCacheCapacity entries unless the capacity is
// overridden); least-recently-used plans are evicted and counted in
// CacheStats. Engines are safe for concurrent use.
//
// The exported fields exist for pre-Session compatibility: they are read
// at the start of each Execute, so mutating them while other goroutines
// execute is a data race. New code should build engines with New(Config) —
// engines so built ignore the mutable fields entirely — and pass per-call
// overrides through ExecuteContext's ExecOptions (the repro.Session facade
// does both).
type Engine struct {
	P    int
	Seed uint64
	// ForceStrategy overrides plan selection when non-nil. Pre-Session
	// compatibility; prefer ExecOptions.Strategy.
	ForceStrategy *Strategy
	// DisablePlanCache replans on every Execute call. Pre-Session
	// compatibility; prefer ExecOptions.NoCache.
	DisablePlanCache bool
	// PlanCacheCapacity bounds the number of cached plans; 0 means
	// DefaultPlanCacheCapacity, negative means unbounded. Pre-Session
	// compatibility: it is latched the first time the engine needs it, so
	// set it before the first Execute; engines built with New(Config) use
	// Config.PlanCacheCapacity instead.
	PlanCacheCapacity int
	// ConsiderMultiRound adds the multi-round pipeline to plan selection
	// (see Config.ConsiderMultiRound). Pre-Session compatibility; prefer
	// Config or ExecOptions.MultiRound.
	ConsiderMultiRound bool

	// conf is the immutable configuration of engines built with New; nil
	// for engines built with NewEngine, which read the exported fields.
	conf *Config

	mu        sync.Mutex
	cache     map[planKey]*list.Element // key → element whose Value is *cacheEntry
	lru       list.List                 // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	replans   uint64
	// capacity is the latched effective cache bound (see capacityLocked).
	capacity    int
	capResolved bool
	// scratchPool recycles exec.Scratch buffers across Execute calls so
	// repeated executions of cached plans don't allocate load-accounting
	// slices.
	scratchPool sync.Pool
	// clusters recycles mpc clusters across Execute calls (size-bucketed):
	// cached-plan serving draws a warm cluster — servers and Received maps
	// retained — instead of reallocating Θ(Virtual) of both per execution.
	clusters exec.ClusterPool
	// standing registers the engine's live standing-query handles so plan
	// invalidation (drift-triggered markStale, ClearPlanCache) can flag the
	// handles whose resident state was built from the invalidated plan.
	// Guarded by mu; the flag itself is an atomic on the handle, so no
	// handle lock is ever taken under mu.
	standing map[*StandingQuery]struct{}
	// replanCh feeds the background replan worker (Config.BackgroundReplan):
	// markStale enqueues stale keys, the worker rebuilds against a fresh
	// snapshot and swaps the plan in under mu. Nil when background
	// replanning is off. replanClosed (guarded by mu) stops enqueues once
	// Close has closed the channel.
	replanCh     chan planKey
	replanClosed bool
	replanWG     sync.WaitGroup
	bgReplans    uint64
	// repartitions counts heavy-partition layout rebuilds driven by serving
	// executions (see Config.DisableAutoPartition). Guarded by mu.
	repartitions uint64
	// breaker is the per-engine circuit breaker over cluster-fault
	// failures; nil unless Config.BreakerThreshold armed it.
	breaker *breaker
}

// cacheEntry is one LRU node: the key (so eviction can unmap it) plus the
// cached plan bundle and its staleness mark (set by drift detection). q, db,
// and s capture the inputs the entry was planned from so the background
// replan worker can rebuild it off the request path (db may be a snapshot;
// the worker re-snapshots it for fresh statistics).
type cacheEntry struct {
	key   planKey
	cp    *cachedPlan
	stale bool
	q     *query.Query
	db    *data.Database
	s     settings
}

// planKey identifies a cached plan: q.String() is a canonical rendering of
// the query (names, variable order, atom order), p/seed pin the layout and
// hash family, and forced pins the strategy override in effect.
//
// Two keying modes coexist. Content mode (serving=false, the pre-Session
// Execute path) sets fp = stats.Fingerprint(db): any content change is a
// different key, so a cached plan is provably built from the statistics of
// the database it runs on. Serving mode (serving=true) sets fp = the
// database's identity and schema = its schema fingerprint: content deltas
// (Database.Apply) keep the key — a physical plan routes by column
// position and stays *correct* for any content, merely load-suboptimal —
// and drift detection decides when suboptimal has become bad enough to
// replan. A schema change (relation replaced with a different shape) does
// change the key, because positional routing would be wrong.
type planKey struct {
	query   string
	fp      uint64
	schema  uint64
	p       int
	seed    uint64
	forced  Strategy // -1 when no override
	mrAware bool     // multi-round consideration changes plan selection
	serving bool
}

// cachedPlan holds the logical plan plus the strategy-specific physical
// plan, whichever strategy was chosen, and the content fingerprint the
// statistics were frozen at (drift detection replans only when the content
// actually moved since).
type cachedPlan struct {
	plan      Plan
	plannedFP uint64
	hc        *hypercube.Plan
	sj        *skew.JoinPlan
	gen       *skew.GeneralPlan
	mr        *rounds.PipelinePlan
}

// forEachPartitionHint visits the (relation, attribute) pairs the cached
// plan's routers can span-route (exec.PhysicalPlan.PartitionHints).
// HyperCube plans hash uniformly and never hint.
func (cp *cachedPlan) forEachPartitionHint(fn func(exec.PartitionHint)) {
	switch {
	case cp.sj != nil:
		for _, h := range cp.sj.Phys.PartitionHints {
			fn(h)
		}
	case cp.gen != nil:
		for _, h := range cp.gen.Phys.PartitionHints {
			fn(h)
		}
	case cp.mr != nil && cp.mr.Pipe != nil:
		for _, st := range cp.mr.Pipe.Stages {
			for _, h := range st.Plan.PartitionHints {
				fn(h)
			}
		}
	}
}

// ensurePartitions drives lazy skew-adaptive layout maintenance for a
// serving execution: every hinted relation gets a current heavy-partition
// index (data.Database.EnsurePartitioned) so span routing kicks in on the
// next epoch's snapshots. db may be a snapshot — the ensure delegates to
// the mutable master behind it.
func (e *Engine) ensurePartitions(cp *cachedPlan, db *data.Database, p int) {
	rebuilt := 0
	cp.forEachPartitionHint(func(h exec.PartitionHint) {
		if db.EnsurePartitioned(h.Rel, h.Attr, p) {
			rebuilt++
		}
	})
	if rebuilt > 0 {
		e.mu.Lock()
		e.repartitions += uint64(rebuilt)
		e.mu.Unlock()
	}
}

// Plan describes the chosen algorithm and the bound analysis for one
// query/database pair.
type Plan struct {
	Strategy       Strategy
	Shares         []int   // HyperCube only
	LowerBoundBits float64 // Theorem 1.2's L_lower = max_{x,u} L_x(u,M,p)
	HasSkew        bool
	Reason         string
	// PredictedBits is the chosen strategy's cost prediction: p^λ for
	// HyperCube, Eq. 10 for the skew join, max_B p^{λ(B)} for bin
	// combinations, and the summed per-round maxima (SumMaxBits) for
	// multi-round pipelines.
	PredictedBits float64
	// Rounds is the number of communication rounds the plan uses (1 for
	// every one-round strategy).
	Rounds int
}

// Result is the outcome of Execute.
type Result struct {
	Plan          Plan
	Output        []data.Tuple
	MaxLoadBits   int64 // max virtual-processor load (what the theorems bound)
	TotalBits     int64
	PredictedBits float64
	// Replanned reports that this execution rebuilt a cached plan that
	// drift detection had marked stale: the statistics the old plan froze
	// had diverged from realized loads. (With Config.BackgroundReplan the
	// rebuild happens off the request path, so serving executions never
	// report it.)
	Replanned bool
	// Recovery reports the fault recovery this execution needed: retry
	// attempts consumed, rounds replayed in place, servers recomputed, and
	// backoff waits taken. The zero value means a clean run.
	Recovery Recovery
	// FaultRetries is the legacy recovery counter, kept equal to
	// Recovery.Attempts: before round-granular recovery existed it counted
	// whole-execution retries (always 0 or 1); it now counts every
	// recovery attempt the execution consumed, so values above 1 are
	// possible. New code should read Recovery.
	FaultRetries int
}

// Retry bounds per-execution fault recovery; see exec.Retry.
type Retry = exec.Retry

// Recovery reports one execution's fault-recovery stats; see exec.Recovery.
type Recovery = exec.Recovery

// Defaults of the zero Retry policy, re-exported from exec.
const (
	DefaultRetryAttempts    = exec.DefaultRetryAttempts
	DefaultRetryBaseBackoff = exec.DefaultRetryBaseBackoff
	DefaultRetryMaxBackoff  = exec.DefaultRetryMaxBackoff
)

// NewEngine returns an engine for p servers in pre-Session compatibility
// mode: configuration is the exported mutable fields, to be set before the
// engine is shared. New(Config) is the serving-grade constructor.
func NewEngine(p int, seed uint64) *Engine {
	if p < 2 {
		panic("core: need p >= 2")
	}
	return &Engine{P: p, Seed: seed}
}

// New returns an engine built from an immutable Config, or an error for
// invalid configuration (rather than the pre-Session constructor's panic).
// Engines built here never read the exported compatibility fields.
func New(cfg Config) (*Engine, error) {
	if cfg.P < 2 {
		return nil, fmt.Errorf("core: need p >= 2, got %d", cfg.P)
	}
	if cfg.DriftFactor != 0 && cfg.DriftFactor < 1 {
		return nil, fmt.Errorf("core: drift factor %g is below 1: realized loads would always count as drifted", cfg.DriftFactor)
	}
	if cfg.ClusterPoolDepth < 0 {
		return nil, fmt.Errorf("core: negative cluster pool depth %d", cfg.ClusterPoolDepth)
	}
	if cfg.ResidentChunkTuples < 0 {
		return nil, fmt.Errorf("core: negative resident chunk %d", cfg.ResidentChunkTuples)
	}
	if cfg.BreakerThreshold < 0 {
		return nil, fmt.Errorf("core: negative breaker threshold %d", cfg.BreakerThreshold)
	}
	e := &Engine{P: cfg.P, Seed: cfg.Seed, conf: &cfg}
	if cfg.BreakerThreshold > 0 {
		e.breaker = &breaker{threshold: cfg.BreakerThreshold}
	}
	e.capacity = effectiveCapacity(cfg.PlanCacheCapacity)
	e.capResolved = true
	e.clusters.Depth = cfg.ClusterPoolDepth
	if cfg.BackgroundReplan {
		e.replanCh = make(chan planKey, replanQueueDepth)
		e.replanWG.Add(1)
		go e.replanWorker()
	}
	return e, nil
}

// replanQueueDepth bounds the background replan queue. A full queue drops
// the enqueue — the entry stays stale and every subsequent cache hit
// re-enqueues it, so a rebuild is delayed, never lost.
const replanQueueDepth = 64

// replanWorker drains replanCh: for each still-stale entry it rebuilds the
// plan against a fresh snapshot of the entry's database and swaps it in.
// Planning runs outside the engine lock (it is the expensive part); the
// swap re-checks the entry under mu, so a concurrent ClearPlanCache or
// eviction just discards the rebuilt plan.
func (e *Engine) replanWorker() {
	defer e.replanWG.Done()
	for key := range e.replanCh {
		e.mu.Lock()
		var q *query.Query
		var db *data.Database
		var s settings
		if el, ok := e.cache[key]; ok {
			if ent := el.Value.(*cacheEntry); ent.stale {
				q, db, s = ent.q, ent.db, ent.s
			}
		}
		e.mu.Unlock()
		if q == nil || db == nil {
			continue
		}
		cp := e.buildPlan(q, db.Snapshot(), s)
		e.mu.Lock()
		if el, ok := e.cache[key]; ok {
			if ent := el.Value.(*cacheEntry); ent.stale {
				ent.cp = cp
				ent.stale = false
				e.replans++
				e.bgReplans++
			}
		}
		// Standing queries flagged by the same markStale reseed themselves
		// on their next Advance; the swapped-in plan is what their planFor
		// will pick up.
		e.mu.Unlock()
	}
}

// Close stops the engine's background workers (the replan worker, when
// Config.BackgroundReplan is set) and waits for them to exit. Engines
// without background workers Close as a no-op; Close is idempotent and safe
// to call concurrently.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.replanCh != nil && !e.replanClosed {
		e.replanClosed = true
		close(e.replanCh)
	}
	e.mu.Unlock()
	e.replanWG.Wait()
}

// enqueueReplanLocked hands key to the background replan worker if one is
// running. Callers hold e.mu.
func (e *Engine) enqueueReplanLocked(key planKey) {
	if e.replanCh == nil || e.replanClosed {
		return
	}
	select {
	case e.replanCh <- key:
	default:
		// Queue full: the entry stays stale and the next hit re-enqueues.
	}
}

// ExecOptions are per-call overrides for ExecuteContext. The zero value
// means "use the engine's configuration".
type ExecOptions struct {
	// Strategy forces plan selection when non-nil.
	Strategy *Strategy
	// MultiRound overrides the engine's ConsiderMultiRound when non-nil.
	MultiRound *bool
	// NoCache bypasses the plan cache for this call (plan and discard).
	NoCache bool
	// P overrides the engine's server count when > 0.
	P int
	// Serving keys the plan cache by database identity + schema instead of
	// content, so cached plans survive Database.Apply deltas; pair it with
	// a DriftFactor so drifted plans get rebuilt. See planKey.
	Serving bool
	// DriftFactor overrides the engine's drift threshold when > 0 (only
	// meaningful with Serving).
	DriftFactor float64
}

// settings is the resolved effective configuration of one execution.
type settings struct {
	p             int
	seed          uint64
	forced        *Strategy
	mr            bool
	noCache       bool
	serving       bool
	drift         float64
	residentChunk int
	bgReplan      bool
	faults        *mpc.Faults
	retry         Retry
	autoPartition bool
}

// settings resolves the engine configuration (immutable Config if present,
// the pre-Session mutable fields otherwise) plus the per-call overrides.
func (e *Engine) settings(opts ExecOptions) settings {
	s := settings{p: e.P, seed: e.Seed}
	if e.conf != nil {
		s.mr = e.conf.ConsiderMultiRound
		s.drift = e.conf.DriftFactor
		s.residentChunk = e.conf.ResidentChunkTuples
		s.bgReplan = e.conf.BackgroundReplan
		s.faults = e.conf.Faults
		s.retry = e.conf.Retry
	} else {
		s.forced = e.ForceStrategy
		s.mr = e.ConsiderMultiRound
		s.noCache = e.DisablePlanCache
	}
	if opts.Strategy != nil {
		s.forced = opts.Strategy
	}
	if opts.MultiRound != nil {
		s.mr = *opts.MultiRound
	}
	if opts.NoCache {
		s.noCache = true
	}
	if opts.P > 0 {
		s.p = opts.P
	}
	s.serving = opts.Serving
	if opts.DriftFactor > 0 {
		s.drift = opts.DriftFactor
	}
	if !s.serving {
		// Content-keyed entries can never drift: any content change is a
		// new key already.
		s.drift = 0
	}
	// Auto-partitioning is a serving-mode feature: serving executions read
	// immutable snapshots, so the master rebuild behind the database lock
	// never races an in-flight round. (A non-serving Execute reads its
	// database directly and may run concurrently with another, so the
	// engine must not mutate layouts there; such callers partition
	// explicitly via data.Database.EnsurePartitioned.)
	s.autoPartition = s.serving && (e.conf == nil || !e.conf.DisableAutoPartition)
	return s
}

// PlanQuery analyzes statistics and picks the algorithm, including the
// multi-round cost comparison when ConsiderMultiRound is set. It builds
// (and discards) the physical plan to obtain the strategy's cost
// prediction; Execute's plan cache avoids the duplicate work on the hot
// path.
func (e *Engine) PlanQuery(q *query.Query, db *data.Database) Plan {
	return e.buildPlan(q, db, e.settings(ExecOptions{})).plan
}

// logicalPlan runs the one-round strategy selection of §3/§4.
func (e *Engine) logicalPlan(q *query.Query, db *data.Database, s settings) Plan {
	if err := q.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid query: %v", err))
	}
	dbStats := stats.CollectDB(db, s.p)
	hasSkew := false
	for _, a := range q.Atoms {
		rs := dbStats.Relations[a.Name]
		if rs == nil {
			panic("core: database missing relation " + a.Name)
		}
		for _, f := range rs.ByAttrs {
			if len(f.HeavyHitters(rs.Threshold)) > 0 {
				hasSkew = true
			}
		}
	}
	lower, desc := bounds.BestLower(q, db, s.p, 0)
	plan := Plan{LowerBoundBits: lower, HasSkew: hasSkew}
	switch {
	case s.forced != nil:
		plan.Strategy = *s.forced
		plan.Reason = "forced: " + plan.Strategy.String()
	case !hasSkew:
		plan.Strategy = HyperCube
		plan.Reason = "no heavy hitters at threshold m/p; LP shares are optimal (" + desc + ")"
	case isJoin2Shaped(q):
		plan.Strategy = SkewJoin
		plan.Reason = "two-relation join with heavy hitters; §4.1 specialized algorithm (" + desc + ")"
	default:
		plan.Strategy = BinCombination
		plan.Reason = "heavy hitters on a general query; §4.2 bin combinations (" + desc + ")"
	}
	return plan
}

// Execute plans and runs the query through the unified executor, returning
// answers and realized loads. Plans are cached: a repeat call with the
// same query, database content, and p reuses the cached physical plan.
// This is the pre-Session entry point: it panics on invalid input and
// cannot be canceled; ExecuteContext is the serving-grade form.
func (e *Engine) Execute(q *query.Query, db *data.Database) Result {
	//skewlint:allow ctxflow — Execute is the documented uncancelable pre-Session entry point
	res, err := e.ExecuteContext(context.Background(), q, db, ExecOptions{})
	if err != nil {
		// The pre-Session API surfaced invalid input as panics; keep that
		// contract for existing callers. (A background context never
		// cancels, so validation errors are the only kind possible here.)
		panic(err.Error())
	}
	return res
}

// ExecuteContext plans and runs the query with per-call options, a
// cancelable context, and errors instead of panics for invalid input. The
// context is checked before planning, before the communication round, and
// between the rounds of a multi-round pipeline; a canceled execution
// returns ctx.Err().
//
// With opts.Serving set, the plan cache keys on database identity + schema
// (cached plans survive Database.Apply deltas), and a configured drift
// factor arms adaptive re-planning: an execution whose realized max load
// exceeds driftFactor × the plan's prediction, on content that changed
// since the plan was built, marks the entry stale; the next call replans
// against current statistics and reports Result.Replanned.
func (e *Engine) ExecuteContext(ctx context.Context, q *query.Query, db *data.Database, opts ExecOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := e.settings(opts)
	if s.p < 2 {
		return Result{}, fmt.Errorf("core: need p >= 2, got %d", s.p)
	}
	if err := q.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrInvalidQuery, err)
	}
	for _, a := range q.Atoms {
		if db.Get(a.Name) == nil {
			return Result{}, fmt.Errorf("core: database missing relation %s", a.Name)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Circuit breaker: a persistently faulting cluster sheds fast instead of
	// burning a retry-backoff budget per caller. Checked before planning so
	// shed calls cost nothing.
	var probe bool
	if e.breaker != nil {
		var berr error
		if probe, berr = e.breaker.admit(); berr != nil {
			return Result{}, berr
		}
	}
	cp, key, replanned := e.planFor(q, db, s)
	if s.autoPartition {
		// Lazy skew-adaptive layout maintenance: make sure every relation
		// the plan's router can span-route carries a current heavy-partition
		// index. Rebuilds land on the mutable master and reach the *next*
		// epoch — this execution's snapshot keeps its frozen layout (current
		// or not, routing is correct either way; stale layouts just route
		// per-tuple or span-wise with yesterday's runs).
		e.ensurePartitions(cp, db, s.p)
	}
	res := Result{Plan: cp.plan, Replanned: replanned}
	// Callers own the Result; don't let them mutate the cached plan
	// through the shared backing array.
	res.Plan.Shares = append([]int(nil), cp.plan.Shares...)
	// Pooled load-accounting scratch: PerServerBits aliases it, so each
	// planner's result shaping must finish before the buffers go back.
	sc, _ := e.scratchPool.Get().(*exec.Scratch)
	if sc == nil {
		sc = new(exec.Scratch)
	}
	var rec Recovery
	ec := exec.Config{Scratch: sc, Clusters: &e.clusters, Ctx: ctx, ResidentChunkTuples: s.residentChunk, Faults: s.faults, Retry: s.retry, Recovery: &rec}
	var execErr error
	switch {
	case cp.hc != nil:
		hc, err := cp.hc.ExecuteWith(db, ec)
		if execErr = err; err == nil {
			res.Output = hc.Output
			res.MaxLoadBits = hc.Loads.MaxBits
			res.TotalBits = hc.Loads.TotalBits
			res.PredictedBits = hc.PredictedBits
		}
	case cp.sj != nil:
		sj, err := cp.sj.ExecuteWith(db, ec)
		if execErr = err; err == nil {
			res.Output = sj.Output
			res.MaxLoadBits = sj.MaxVirtualBits
			res.TotalBits = sj.TotalBits
			res.PredictedBits = sj.PredictedBits
		}
	case cp.gen != nil:
		g, err := cp.gen.ExecuteWith(db, ec)
		if execErr = err; err == nil {
			res.Output = g.Output
			res.MaxLoadBits = g.MaxVirtualBits
			res.TotalBits = g.TotalBits
			res.PredictedBits = g.PredictedBits
		}
	case cp.mr != nil:
		r, err := cp.mr.ExecuteWith(db, ec)
		if execErr = err; err == nil {
			res.Output = r.Output
			// The multi-round analogue of the one-round max load is the
			// summed per-round maxima: the most bits one server could have
			// received across the whole computation.
			res.MaxLoadBits = r.SumMaxBits
			for _, rl := range r.Rounds {
				res.TotalBits += rl.TotalBits
			}
			res.PredictedBits = cp.mr.PredictedSumMaxBits
		}
	}
	if execErr != nil {
		// Recovery happened inside the executor (round replays, partial
		// recomputes); an error here means the retry budget is spent. Surface
		// the typed error so the caller can shed or degrade, and let the
		// breaker count cluster-level faults.
		if e.breaker != nil {
			outcome := breakerNeutral
			if isInjectedFault(execErr) {
				outcome = breakerFault
			}
			e.breaker.done(probe, outcome)
		}
		e.scratchPool.Put(sc)
		return Result{}, execErr
	}
	if e.breaker != nil {
		e.breaker.done(probe, breakerOK)
	}
	res.Recovery = rec
	res.FaultRetries = rec.Attempts
	// Result.Output escapes to the caller: the scratch must release the
	// buffer it aliases, or the next Execute reusing this scratch would
	// overwrite answers the caller already holds.
	if res.Output != nil {
		sc.DetachOutput()
	}
	e.scratchPool.Put(sc)
	// Adaptive re-planning: realized load drifted beyond the prediction on
	// content that moved since the statistics were frozen → replan next
	// call. (Equal content cannot replan: rebuilt statistics would be
	// identical, so marking would only thrash the cache.)
	if s.drift > 0 && !s.noCache {
		pred := res.Plan.PredictedBits
		if pred > 0 && float64(res.MaxLoadBits) > s.drift*pred {
			if fp := stats.Fingerprint(db); fp != cp.plannedFP {
				e.markStale(key)
			}
		}
	}
	return res, nil
}

// isInjectedFault reports whether err is a cluster-level fault error — the
// kind the executor's retry budget fights and the circuit breaker counts.
func isInjectedFault(err error) bool {
	return errors.Is(err, mpc.ErrTornRound) || errors.Is(err, mpc.ErrComputeFailed)
}

// markStale marks the cached entry for key (if still cached) so it gets
// rebuilt against current statistics — inline by the next execution, or off
// the request path when the background replan worker is running — and flags
// every standing query built from that plan so its next Advance reseeds.
func (e *Engine) markStale(key planKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.cache[key]; ok {
		el.Value.(*cacheEntry).stale = true
		e.enqueueReplanLocked(key)
	}
	for sq := range e.standing {
		if sq.key == key {
			sq.stale.Store(true)
		}
	}
}

// planFor returns the cached plan bundle for (q, db), building and caching
// it on a miss. Hits refresh the entry's LRU position; a hit on a
// drift-stale entry rebuilds it (reported as replanned); inserts beyond
// the capacity evict from the cold end.
func (e *Engine) planFor(q *query.Query, db *data.Database, s settings) (*cachedPlan, planKey, bool) {
	if s.noCache {
		return e.buildPlan(q, db, s), planKey{}, false
	}
	key := planKey{query: q.String(), p: s.p, seed: s.seed, forced: -1, mrAware: s.mr, serving: s.serving}
	if s.forced != nil {
		key.forced = *s.forced
	}
	if s.serving {
		key.fp = db.ID()
		key.schema = stats.SchemaFingerprint(db)
	} else {
		key.fp = stats.Fingerprint(db)
	}
	replanned := false
	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		ent := el.Value.(*cacheEntry)
		if !ent.stale || s.bgReplan {
			// A stale entry under background replanning still serves as a
			// hit: the plan is correct for any content, and the worker is
			// rebuilding it off the request path. Re-enqueue in case the
			// original enqueue was dropped on a full queue.
			if ent.stale {
				e.enqueueReplanLocked(key)
			}
			e.hits++
			e.lru.MoveToFront(el)
			cp := ent.cp
			e.mu.Unlock()
			return cp, key, false
		}
		// Drift marked this entry stale: drop it and replan against the
		// database's current statistics.
		e.lru.Remove(el)
		delete(e.cache, key)
		e.replans++
		replanned = true
	}
	e.mu.Unlock()
	// Plan outside the lock: planning is the expensive part, and a
	// duplicate build for a racing miss is just redundant work.
	cp := e.buildPlan(q, db, s)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.misses++
	if el, ok := e.cache[key]; ok {
		// A racing miss already inserted this key; keep the live entry.
		e.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).cp, key, replanned
	}
	if e.cache == nil {
		e.cache = make(map[planKey]*list.Element)
	}
	e.cache[key] = e.lru.PushFront(&cacheEntry{key: key, cp: cp, q: q, db: db, s: s})
	capacity := e.capacityLocked()
	for capacity > 0 && e.lru.Len() > capacity {
		cold := e.lru.Back()
		e.lru.Remove(cold)
		delete(e.cache, cold.Value.(*cacheEntry).key)
		e.evictions++
	}
	return cp, key, replanned
}

// buildPlan runs the logical planner, lowers the chosen strategy to its
// physical plan, and — when multi-round consideration is on — cost-compares
// the one-round choice against a multi-round pipeline (predicted SumMaxBits
// vs the one-round PredictedBits), switching to the pipeline when cheaper.
func (e *Engine) buildPlan(q *query.Query, db *data.Database, s settings) *cachedPlan {
	cp := &cachedPlan{plan: e.logicalPlan(q, db, s)}
	cp.plannedFP = stats.Fingerprint(db)
	cp.plan.Rounds = 1
	switch cp.plan.Strategy {
	case HyperCube:
		cp.hc = hypercube.BuildPlan(q, db, hypercube.Config{P: s.p, Seed: s.seed})
		cp.plan.Shares = cp.hc.Shares
		cp.plan.PredictedBits = cp.hc.PredictedBits
	case SkewJoin:
		cp.sj = skew.PlanJoin(q, db, skew.JoinConfig{P: s.p, Seed: s.seed})
		cp.plan.PredictedBits = cp.sj.PredictedBits
	case BinCombination:
		cp.gen = skew.PlanGeneral(q, db, skew.GeneralConfig{P: s.p, Seed: s.seed})
		cp.plan.PredictedBits = cp.gen.PredictedBits
	case MultiRound:
		cp.mr = planMultiRound(q, db, s)
		cp.plan.PredictedBits = cp.mr.PredictedSumMaxBits
		cp.plan.Rounds = len(cp.mr.Logical.Steps)
	}
	if s.mr && s.forced == nil && cp.mr == nil && q.NumAtoms() >= 2 {
		mr := planMultiRound(q, db, s)
		one := cp.plan.PredictedBits
		if one > 0 && mr.PredictedSumMaxBits < one {
			cp.plan.Reason = fmt.Sprintf(
				"multi-round pipeline predicted Σmax %.0f bits beats one-round %s predicted %.0f bits (%s)",
				mr.PredictedSumMaxBits, cp.plan.Strategy, one, cp.plan.Reason)
			cp.plan.Strategy = MultiRound
			cp.plan.Shares = nil
			cp.plan.PredictedBits = mr.PredictedSumMaxBits
			cp.plan.Rounds = len(mr.Logical.Steps)
			cp.hc, cp.sj, cp.gen = nil, nil, nil
			cp.mr = mr
		} else {
			cp.plan.Reason += fmt.Sprintf(
				"; multi-round rejected (predicted Σmax %.0f bits over %d rounds)",
				mr.PredictedSumMaxBits, len(mr.Logical.Steps))
		}
	}
	return cp
}

// planMultiRound lowers the skew-aware multi-round pipeline for q.
func planMultiRound(q *query.Query, db *data.Database, s settings) *rounds.PipelinePlan {
	return rounds.PlanPipeline(q, db, rounds.Config{P: s.p, Seed: s.seed, SkewAware: true})
}

// effectiveCapacity maps the configured capacity to the effective bound.
func effectiveCapacity(configured int) int {
	if configured == 0 {
		return DefaultPlanCacheCapacity
	}
	return configured
}

// capacityLocked returns the effective cache capacity, latching the
// pre-Session mutable field the first time an insert needs it so the
// bound can never change mid-serving. Callers hold e.mu.
func (e *Engine) capacityLocked() int {
	if !e.capResolved {
		e.capacity = effectiveCapacity(e.PlanCacheCapacity)
		e.capResolved = true
	}
	return e.capacity
}

// capacityPeekLocked is capacityLocked without the latch: CacheStats must
// report the effective bound without freezing a pre-Session engine's
// PlanCacheCapacity before its documented set-before-first-Execute window
// closes. Callers hold e.mu.
func (e *Engine) capacityPeekLocked() int {
	if e.capResolved {
		return e.capacity
	}
	return effectiveCapacity(e.PlanCacheCapacity)
}

// CacheStats reports the plan cache counters and occupancy.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Replans counts drift-triggered rebuilds of stale entries (an inline
	// replan also counts as a miss: it plans). BackgroundReplans of them
	// were rebuilt off the request path by the background worker.
	Replans           uint64
	BackgroundReplans uint64
	// Repartitions counts heavy-partition layout rebuilds driven by serving
	// executions (Config.DisableAutoPartition turns the maintenance off).
	Repartitions uint64
	Size         int // live entries
	Capacity     int // effective bound (≤ 0 means unbounded)
}

// CacheStats returns the plan cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		Hits:              e.hits,
		Misses:            e.misses,
		Evictions:         e.evictions,
		Replans:           e.replans,
		BackgroundReplans: e.bgReplans,
		Repartitions:      e.repartitions,
		Size:              len(e.cache),
		Capacity:          e.capacityPeekLocked(),
	}
}

// PoolStats reports the engine's cluster pool occupancy — the warm
// clusters cached-plan serving draws from and the memory they pin.
func (e *Engine) PoolStats() exec.PoolStats {
	return e.clusters.Stats()
}

// ClearPlanCache drops all cached plans and resets the counters. Live
// standing queries are flagged stale: their resident state was seeded from
// a now-dropped plan, so their next Advance replans and reseeds.
func (e *Engine) ClearPlanCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = nil
	e.lru.Init()
	e.hits, e.misses, e.evictions, e.replans, e.bgReplans, e.repartitions = 0, 0, 0, 0, 0, 0
	for sq := range e.standing {
		sq.stale.Store(true)
	}
}

// isJoin2Shaped recognizes q(x,y,z) = S1(x,z), S2(y,z) up to renaming:
// two binary atoms sharing exactly one variable, which sits at the second
// position of both atoms.
func isJoin2Shaped(q *query.Query) bool {
	if q.NumAtoms() != 2 || q.NumVars() != 3 {
		return false
	}
	a, b := q.Atoms[0], q.Atoms[1]
	if a.Arity() != 2 || b.Arity() != 2 {
		return false
	}
	return a.Vars[1] == b.Vars[1] && a.Vars[0] != b.Vars[0]
}
