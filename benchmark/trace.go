package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around
// that layer's exported function. The spans of one operation share Op, the
// ID of its root span.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for an operation's root span
	Op     int64   `json:"op"`
	Layer  string  `json:"layer"`
	Start  int64   `json:"start_ns"` // since the tracer started
	End    int64   `json:"end_ns"`
	Count  int64   `json:"count,omitempty"` // work the call did: tuples, rows, hitters, servers
	Ratio  float64 `json:"ratio,omitempty"`
	Bytes  int64   `json:"alloc_bytes,omitempty"` // heap bytes allocated during the call

	alloc0 uint64 // heap allocation counter at Start; set for allocation-measured spans
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use (the churn reader and writer trace at once).
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens an operation; its layer names the operation kind.
func (t *tracer) root(kind string) *span {
	id := t.ids.Add(1)
	return &span{ID: id, Op: id, Layer: kind, Start: t.now()}
}

func (t *tracer) child(parent *span, layer string) *span {
	return &span{ID: t.ids.Add(1), Parent: parent.ID, Op: parent.Op, Layer: layer, Start: t.now()}
}

// childAlloc is child for a span that also measures heap allocation.
func (t *tracer) childAlloc(parent *span, layer string) *span {
	s := t.child(parent, layer)
	s.alloc0 = heapAllocBytes()
	return s
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	if s.alloc0 != 0 {
		s.Bytes = int64(heapAllocBytes() - s.alloc0)
	}
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTrace is one operation's spans folded by layer. A layer's self time is
// its spans' durations minus the time their child spans cover.
type opTrace struct {
	kind  string
	dur   int64
	self  map[string]int64
	count map[string]int64
	ratio map[string]float64
	bytes map[string]int64
	// servers holds the per-server (duration, rows) of a local pass.
	servers [][2]int64
}

// foldOps groups spans by operation, in no particular order.
func foldOps(spans []span) []*opTrace {
	covered := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byOp := map[int64]*opTrace{}
	for _, s := range spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opTrace{self: map[string]int64{}, count: map[string]int64{}, ratio: map[string]float64{}, bytes: map[string]int64{}}
			byOp[s.Op] = o
		}
		d := s.End - s.Start
		if s.Parent == 0 {
			o.kind, o.dur = s.Layer, d
		}
		o.self[s.Layer] += d - covered[s.ID]
		o.count[s.Layer] += s.Count
		o.ratio[s.Layer] += s.Ratio
		o.bytes[s.Layer] += s.Bytes
		if s.Layer == "join.server" {
			o.servers = append(o.servers, [2]int64{d, s.Count})
		}
	}
	ops := make([]*opTrace, 0, len(byOp))
	for _, o := range byOp {
		ops = append(ops, o)
	}
	return ops
}

// layerMedian is the median over operations that called layer of f(op).
func layerMedian(ops []*opTrace, layer string, f func(o *opTrace) float64) float64 {
	var vs []float64
	for _, o := range ops {
		if _, ok := o.self[layer]; ok {
			vs = append(vs, f(o))
		}
	}
	return median(vs)
}

// replica re-implements Session.Exec from the benchmark's side so that
// each layer's exported function runs under its own span: the snapshot,
// the plan-cache key, planning (statistics, bounds, the planners) when the
// operation plans, partition maintenance, the routed round on a reused
// cluster, local compute, gather and load accounting. It mirrors
// core.Engine.ExecuteContext and its buildPlan; the run fails if its plan
// strategy ever differs from the Session's.
type replica struct {
	q          *query.Query
	p          int
	seed       uint64
	multiRound bool
	cached     bool // plan once, as a plan-cache hit does; otherwise plan per operation

	plan    *replicaPlan // the cached plan, or the last operation's
	cluster *mpc.Cluster
	pool    exec.ClusterPool // multi-round pipelines
}

type replicaPlan struct {
	strategy string
	phys     *exec.PhysicalPlan   // one-round plans
	pipe     *rounds.PipelinePlan // multi-round plans
}

func (pl *replicaPlan) hints() []exec.PartitionHint {
	if pl.phys != nil {
		return pl.phys.PartitionHints
	}
	var hs []exec.PartitionHint
	if pl.pipe.Pipe != nil {
		for _, st := range pl.pipe.Pipe.Stages {
			hs = append(hs, st.Plan.PartitionHints...)
		}
	}
	return hs
}

// isJoin2Shaped recognizes q(x,y,z) = S1(x,z), S2(y,z) up to renaming, as
// the engine's strategy selection does.
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

// buildPlan plans q over db under parent: statistics, the lower bound, the
// strategy's planner, the content fingerprint and, when multi-round plans
// are considered, the pipeline planner and the cost comparison.
func (r *replica) buildPlan(tr *tracer, parent *span, db *data.Database) (*replicaPlan, error) {
	sp := tr.child(parent, "core.plan")
	defer tr.end(sp)
	if err := r.q.Validate(); err != nil {
		return nil, err
	}
	s := tr.child(sp, "stats.collect")
	st := stats.CollectDB(db, r.p)
	for _, a := range r.q.Atoms {
		rs := st.Relations[a.Name]
		for _, f := range rs.ByAttrs {
			s.Count += int64(len(f.HeavyHitters(rs.Threshold)))
		}
	}
	tr.end(s)
	heavy := s.Count

	s = tr.child(sp, "bounds.best_lower")
	bounds.BestLower(r.q, db, r.p, 0)
	tr.end(s)

	pl := &replicaPlan{}
	var predicted float64
	switch {
	case heavy == 0:
		s = tr.child(sp, "hypercube.plan")
		hc := hypercube.BuildPlan(r.q, db, hypercube.Config{P: r.p, Seed: r.seed})
		tr.end(s)
		pl.strategy, pl.phys, predicted = "hypercube", hc.Phys, hc.PredictedBits
	case isJoin2Shaped(r.q):
		s = tr.child(sp, "skew.plan")
		sj := skew.PlanJoin(r.q, db, skew.JoinConfig{P: r.p, Seed: r.seed})
		s.Count = int64(sj.Phys.Virtual)
		tr.end(s)
		pl.strategy, pl.phys, predicted = "skew-join", sj.Phys, sj.PredictedBits
	default:
		s = tr.child(sp, "skew.plan")
		g := skew.PlanGeneral(r.q, db, skew.GeneralConfig{P: r.p, Seed: r.seed})
		s.Count = int64(g.Phys.Virtual)
		tr.end(s)
		pl.strategy, pl.phys, predicted = "bin-combination", g.Phys, g.PredictedBits
	}

	s = tr.child(sp, "stats.content_fingerprint")
	stats.Fingerprint(db)
	tr.end(s)

	if r.multiRound && r.q.NumAtoms() >= 2 {
		s = tr.child(sp, "rounds.plan")
		mr := rounds.PlanPipeline(r.q, db, rounds.Config{P: r.p, Seed: r.seed, SkewAware: true})
		tr.end(s)
		if predicted > 0 && mr.PredictedSumMaxBits < predicted {
			pl = &replicaPlan{strategy: "multi-round", pipe: mr}
		}
	}
	return pl, nil
}

// exec runs one traced operation under root and returns its answers.
func (r *replica) exec(tr *tracer, root *span, db *data.Database) ([]data.Tuple, error) {
	s := tr.child(root, "data.snapshot")
	snap := db.Snapshot()
	tr.end(s)

	if r.cached {
		s = tr.child(root, "core.plan_key")
		_ = r.q.String()
		tr.end(s)
		s = tr.child(root, "stats.fingerprint")
		stats.SchemaFingerprint(snap)
		tr.end(s)
	} else {
		pl, err := r.buildPlan(tr, root, snap)
		if err != nil {
			return nil, err
		}
		r.plan = pl
	}
	pl := r.plan

	s = tr.child(root, "data.partition")
	for _, h := range pl.hints() {
		snap.EnsurePartitioned(h.Rel, h.Attr, r.p)
	}
	tr.end(s)

	if pl.pipe != nil {
		s = tr.child(root, "exec.pipeline")
		res, err := pl.pipe.ExecuteWith(snap, exec.Config{Clusters: &r.pool})
		tr.end(s)
		return res.Output, err
	}

	phys := pl.phys
	s = tr.childAlloc(root, "mpc.round")
	switch {
	case r.cluster == nil:
		r.cluster = mpc.NewCluster(phys.Virtual)
	case r.cluster.P != phys.Virtual:
		r.cluster.Resize(phys.Virtual)
	default:
		r.cluster.Reset()
	}
	names := phys.Relations
	if len(names) == 0 {
		names = snap.Names()
	}
	rels := make([]*data.Relation, len(names))
	for i, name := range names {
		rels[i] = snap.MustGet(name)
	}
	err := r.cluster.RoundRelations(phys.Router, rels...)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s round: %w", pl.strategy, err)
	}

	s = tr.childAlloc(root, "join.compute")
	outs := make([][]data.Tuple, phys.Virtual)
	failed := r.cluster.ComputeGather(outs, phys.Local)
	tr.end(s)
	if len(failed) > 0 {
		return nil, fmt.Errorf("%s compute failed on servers %v", pl.strategy, failed)
	}

	s = tr.child(root, "exec.gather")
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]data.Tuple, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	if phys.Dedup {
		out = join.Dedup(out)
	}
	s.Count = int64(len(out))
	tr.end(s)

	s = tr.child(root, "mpc.loads")
	loads := r.cluster.Loads().WithReplication(snap.TotalBits())
	s.Count, s.Ratio = loads.TotalTuples, loads.Replication
	tr.end(s)
	return out, nil
}

// localPass times each server's local computation alone, one server after
// another, over the fragments the last one-round operation routed.
func (r *replica) localPass(tr *tracer) {
	if r.plan == nil || r.plan.phys == nil || r.cluster == nil {
		return
	}
	root := tr.root("local_pass")
	for _, sv := range r.cluster.Servers {
		s := tr.child(root, "join.server")
		s.Count = int64(len(r.plan.phys.Local(sv)))
		tr.end(s)
	}
	tr.end(root)
}
