// Package skew implements the skew-aware one-round algorithms of §4 of
// Beame–Koutris–Suciu: the two-table skew join of §4.1 (light hitters by
// hash join, jointly-heavy hitters by per-hitter cartesian grids,
// one-sided-heavy hitters by partition+broadcast) and the general
// bin-combination algorithm of §4.2 for arbitrary conjunctive queries.
//
// Both algorithms allocate Θ(p) virtual processors (as the paper does) and
// run in a single communication round: every routing decision is a pure
// function of the tuple plus the pre-computed heavy-hitter statistics.
package skew

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/stats"
)

// hitterClass says how a z-value is treated by the skew join.
type hitterClass int

const (
	classLight hitterClass = iota
	classH1                // heavy in S1 only: partition S1 on x, broadcast S2
	classH2                // heavy in S2 only: partition S2 on y, broadcast S1
	classH12               // heavy in both: p1×p2 cartesian grid
)

// hitterPlan is the per-heavy-hitter server allocation.
type hitterPlan struct {
	class  hitterClass
	base   int // first virtual server of this hitter's block
	ph     int // number of virtual servers in the block
	p1, p2 int // grid split for classH12 (p1·p2 ≤ ph+slack)
}

// JoinConfig configures the §4.1 skew join of q(x,y,z) = S1(x,z), S2(y,z).
type JoinConfig struct {
	P    int
	Seed uint64
	// ThresholdNum/ThresholdDen scale the heavy-hitter threshold to
	// (Num/Den)·m/p; both default to 1 (the paper's m/p). Ablation A3.
	ThresholdNum, ThresholdDen int64
	// SkipJoin measures routing loads only (no local join, empty Output).
	SkipJoin bool
	// SampleSize, when positive, detects heavy hitters from a uniform
	// sample of that many tuples per relation instead of an exact pass —
	// the sampling practice the paper cites for skew joins. Misclassified
	// hitters only shift load, never correctness: every z-value is still
	// routed consistently by whichever class the (shared) estimate gave
	// it. SampleSeed fixes the sample.
	SampleSize int
	SampleSeed int64
}

// ClassLoads breaks the max virtual load down by the four §4.1 cases, in
// bits. The paper bounds each separately (light by m_j/p, H12 by L12, H1
// and H2 by partition+broadcast); the breakdown shows which case realizes
// the max.
type ClassLoads struct {
	Light, H1, H2, H12 int64
}

// JoinResult reports a skew-join run.
type JoinResult struct {
	Output []data.Tuple
	// MaxVirtualBits is the maximum load over virtual processors (what
	// Eq. 10 bounds); MaxPhysicalBits maps virtual servers onto the p
	// physical ones round-robin.
	MaxVirtualBits  int64
	MaxPhysicalBits int64
	TotalBits       int64 // received bits summed over all virtual servers
	VirtualServers  int
	// PredictedTuples is Eq. (10): max(m1/p, m2/p, L1, L2, L12) in tuples;
	// PredictedBits converts at 2·⌈log₂ n⌉ bits per tuple.
	PredictedTuples      float64
	PredictedBits        float64
	NumH1, NumH2, NumH12 int
	ByClass              ClassLoads
}

// joinShape is the §4.1 query shape extracted from q's own atoms: relation
// names, the position of the shared join variable z in each atom, and the
// hash dimensions (q's variable indices, so renamed queries route their
// own column order — no canonical-name remapping).
type joinShape struct {
	q                *query.Query
	name1, name2     string
	zPos1, zPos2     int // column of z in atom 1 / atom 2
	xPos1, xPos2     int // column of the private variable
	dimX, dimY, dimZ int
}

// shapeOf validates that q is the two-relation join q(x,y,z) = R(..), T(..)
// — two binary atoms sharing exactly one variable — and extracts its shape.
func shapeOf(q *query.Query) joinShape {
	if q.NumAtoms() != 2 || q.NumVars() != 3 ||
		q.Atoms[0].Arity() != 2 || q.Atoms[1].Arity() != 2 {
		panic("skew: PlanJoin needs two binary atoms over three variables: " + q.String())
	}
	a, b := q.Atoms[0], q.Atoms[1]
	sh := joinShape{q: q, name1: a.Name, name2: b.Name, zPos1: -1}
	for pa, va := range a.Vars {
		for pb, vb := range b.Vars {
			if va == vb {
				if sh.zPos1 >= 0 {
					panic("skew: PlanJoin needs exactly one shared variable: " + q.String())
				}
				sh.zPos1, sh.zPos2 = pa, pb
				sh.dimZ = va
			}
		}
	}
	if sh.zPos1 < 0 {
		panic("skew: PlanJoin needs a shared variable: " + q.String())
	}
	sh.xPos1, sh.xPos2 = 1-sh.zPos1, 1-sh.zPos2
	sh.dimX = a.Vars[sh.xPos1]
	sh.dimY = b.Vars[sh.xPos2]
	return sh
}

// JoinPlan is the §4.1 planner output: per-heavy-hitter virtual-server
// blocks lowered to the unified executor's PhysicalPlan, plus the class
// ranges needed for the per-class load breakdown. Plans are reusable
// across executions.
type JoinPlan struct {
	Phys                 *exec.PhysicalPlan
	NumH1, NumH2, NumH12 int
	PredictedTuples      float64
	PredictedBits        float64
	p                    int
	// classRanges are the hitter blocks in ascending virtual-ID order
	// ([0,p) is the implicit light range).
	classRanges []classRange
	skipJoin    bool
}

type classRange struct {
	lo, hi int
	class  hitterClass
}

// RunJoin executes the skew join for q(x,y,z) = S1(x,z), S2(y,z) over db
// (relations "S1", "S2", both binary with z in column 1) — the historical
// entry point; PlanJoin accepts any two-relation join shape under q's own
// names and column order.
func RunJoin(db *data.Database, cfg JoinConfig) JoinResult {
	return PlanJoin(query.Join2(), db, cfg).Execute(db)
}

// PlanJoin detects heavy hitters at threshold m_j/p and allocates virtual
// processors per §4.1 for the two-relation join q over db, routing q's own
// relation names and column order. Every routing decision of the produced
// plan is a pure function of the tuple plus the heavy-hitter statistics
// frozen at plan time.
func PlanJoin(q *query.Query, db *data.Database, cfg JoinConfig) *JoinPlan {
	if cfg.P < 1 {
		panic("skew: P must be >= 1")
	}
	sh := shapeOf(q)
	num, den := cfg.ThresholdNum, cfg.ThresholdDen
	if num <= 0 {
		num = 1
	}
	if den <= 0 {
		den = 1
	}
	s1, s2 := db.MustGet(sh.name1), db.MustGet(sh.name2)
	m1, m2 := int64(s1.Size()), int64(s2.Size())
	var f1, f2 *stats.FreqMap
	if cfg.SampleSize > 0 {
		f1 = stats.SampleFrequencies(s1, []int{sh.zPos1}, cfg.SampleSize, cfg.SampleSeed)
		f2 = stats.SampleFrequencies(s2, []int{sh.zPos2}, cfg.SampleSize, cfg.SampleSeed+1)
	} else {
		f1 = stats.Frequencies(s1, []int{sh.zPos1})
		f2 = stats.Frequencies(s2, []int{sh.zPos2})
	}
	thr1 := float64(m1) * float64(num) / (float64(cfg.P) * float64(den))
	thr2 := float64(m2) * float64(num) / (float64(cfg.P) * float64(den))

	// Classify heavy hitters. The paper's H_j sets use m_j(h) ≥ m_j/p.
	plans := make(map[int64]*hitterPlan)
	var h12Keys, h1Keys, h2Keys []int64
	for k, c1 := range f1.Counts {
		if float64(c1) < thr1 {
			continue
		}
		v := k.At(0)
		if float64(f2.Counts[k]) >= thr2 {
			plans[v] = &hitterPlan{class: classH12}
			h12Keys = append(h12Keys, v)
		} else {
			plans[v] = &hitterPlan{class: classH1}
			h1Keys = append(h1Keys, v)
		}
	}
	for k, c2 := range f2.Counts {
		if float64(c2) < thr2 {
			continue
		}
		v := k.At(0)
		if _, done := plans[v]; !done {
			plans[v] = &hitterPlan{class: classH2}
			h2Keys = append(h2Keys, v)
		}
	}
	sort.Slice(h12Keys, func(i, j int) bool { return h12Keys[i] < h12Keys[j] })
	sort.Slice(h1Keys, func(i, j int) bool { return h1Keys[i] < h1Keys[j] })
	sort.Slice(h2Keys, func(i, j int) bool { return h2Keys[i] < h2Keys[j] })

	count := func(f *stats.FreqMap, v int64) int64 { return f.Counts[data.Key1(v)] }

	// Server allocation (§4.1). Light hitters use virtual servers [0, p).
	next := cfg.P
	var sumK12, sumK1, sumK2 float64
	for _, v := range h12Keys {
		sumK12 += float64(count(f1, v)) * float64(count(f2, v))
	}
	for _, v := range h1Keys {
		sumK1 += float64(count(f1, v))
	}
	for _, v := range h2Keys {
		sumK2 += float64(count(f2, v))
	}
	for _, v := range h12Keys {
		pl := plans[v]
		k12 := float64(count(f1, v)) * float64(count(f2, v))
		pl.ph = int(math.Ceil(float64(cfg.P) * k12 / sumK12))
		// Grid split p1 ∝ sqrt(ph·m1(h)/m2(h)) as in §1, clamped so the
		// block never exceeds ph servers.
		r1 := float64(count(f1, v))
		r2 := float64(count(f2, v))
		pl.p1 = int(math.Round(math.Sqrt(float64(pl.ph) * r1 / r2)))
		if pl.p1 < 1 {
			pl.p1 = 1
		}
		if pl.p1 > pl.ph {
			pl.p1 = pl.ph
		}
		pl.p2 = pl.ph / pl.p1
		if pl.p2 < 1 {
			pl.p2 = 1
		}
		pl.base = next
		next += pl.p1 * pl.p2
	}
	for _, v := range h1Keys {
		pl := plans[v]
		pl.ph = int(math.Ceil(float64(cfg.P) * float64(count(f1, v)) / sumK1))
		pl.base = next
		next += pl.ph
	}
	for _, v := range h2Keys {
		pl := plans[v]
		pl.ph = int(math.Ceil(float64(cfg.P) * float64(count(f2, v)) / sumK2))
		pl.base = next
		next += pl.ph
	}
	virtual := next

	family := hashing.NewFamily(cfg.Seed)
	router := &joinRouter{
		sh:    sh,
		plans: plans,
		p:     cfg.P,
		zSeed: family.DimSeed(sh.dimZ),
		xSeed: family.DimSeed(sh.dimX),
		ySeed: family.DimSeed(sh.dimY),
	}

	jp := &JoinPlan{
		NumH1:    len(h1Keys),
		NumH2:    len(h2Keys),
		NumH12:   len(h12Keys),
		p:        cfg.P,
		skipJoin: cfg.SkipJoin,
	}
	// Class ranges in the virtual-ID space: [0,p) is light; hitter blocks
	// follow in allocation order (H12, H1, H2), so the ranges are sorted.
	for _, v := range h12Keys {
		pl := plans[v]
		jp.classRanges = append(jp.classRanges, classRange{pl.base, pl.base + pl.p1*pl.p2, classH12})
	}
	for _, v := range h1Keys {
		pl := plans[v]
		jp.classRanges = append(jp.classRanges, classRange{pl.base, pl.base + pl.ph, classH1})
	}
	for _, v := range h2Keys {
		pl := plans[v]
		jp.classRanges = append(jp.classRanges, classRange{pl.base, pl.base + pl.ph, classH2})
	}
	// Eq. (10): L = max(m1/p, m2/p, L1, L2, L12).
	p := float64(cfg.P)
	jp.PredictedTuples = math.Max(float64(m1)/p, float64(m2)/p)
	jp.PredictedTuples = math.Max(jp.PredictedTuples, math.Sqrt(sumK12/p))
	jp.PredictedTuples = math.Max(jp.PredictedTuples, math.Sqrt(sumK1/p))
	jp.PredictedTuples = math.Max(jp.PredictedTuples, math.Sqrt(sumK2/p))
	jp.PredictedBits = jp.PredictedTuples * float64(s1.BitsPerTuple())
	jp.Phys = &exec.PhysicalPlan{
		Strategy: "skew-join",
		Virtual:  virtual,
		Physical: cfg.P,
		Router:   router,
		// Route only the join's two relations: serving latency must not
		// scale with unrelated relations sharing the database.
		Relations: q.AtomNames(),
		Local: func(s *mpc.Server) []data.Tuple {
			return join.Join(q, s.Received)
		},
		PredictedBits: jp.PredictedBits,
	}
	// Heavy runs on the join column route span-wise (joinRouter implements
	// mpc.SpanRouter): one hitter-plan resolution per run instead of one map
	// lookup per tuple. In a self-join the router classifies the shared
	// relation by its first atom, so only that atom's column is hinted.
	jp.Phys.PartitionHints = []exec.PartitionHint{{Rel: sh.name1, Attr: sh.zPos1}}
	if sh.name2 != sh.name1 {
		jp.Phys.PartitionHints = append(jp.Phys.PartitionHints, exec.PartitionHint{Rel: sh.name2, Attr: sh.zPos2})
	}
	return jp
}

// joinRouter routes the §4.1 skew join: light z-values hash-join over
// servers [0,p), heavy hitters go to their per-hitter blocks. It carries
// only plan-time tables (hitter classes frozen into plans) and no mutable
// scratch, so one instance is safe for concurrent senders. Routing reads
// the z and x columns directly; no row is materialized.
type joinRouter struct {
	sh    joinShape
	plans map[int64]*hitterPlan
	p     int
	// Per-dimension hash seeds, precomputed at plan time.
	zSeed, xSeed, ySeed uint64
}

// DestinationsAt implements mpc.Router, hashing the join columns in place.
// The database may carry relations outside the join; they are not routed.
//
//skewlint:noalloc
func (r *joinRouter) DestinationsAt(rel *data.Relation, row int, dst []int) []int {
	first := rel.Name == r.sh.name1
	if !first && rel.Name != r.sh.name2 {
		return dst
	}
	cols := rel.Columns()
	if first {
		return r.route(true, cols[r.sh.zPos1][row], cols[r.sh.xPos1][row], dst)
	}
	return r.route(false, cols[r.sh.zPos2][row], cols[r.sh.xPos2][row], dst)
}

// route appends the destinations of one tuple given its join value z and
// private value x.
//
//skewlint:noalloc
func (r *joinRouter) route(first bool, z, x int64, dst []int) []int {
	pl := r.plans[z]
	if pl == nil { // light: hash join on z over servers [0,p)
		return append(dst, hashing.HashSeeded(r.zSeed, z, r.p))
	}
	switch pl.class {
	case classH12:
		if first { // row fixed by hash(x), replicate across columns
			row := hashing.HashSeeded(r.xSeed, x, pl.p1)
			for c := 0; c < pl.p2; c++ {
				dst = append(dst, pl.base+row*pl.p2+c)
			}
		} else { // column fixed by hash(y), replicate across rows
			col := hashing.HashSeeded(r.ySeed, x, pl.p2)
			for rr := 0; rr < pl.p1; rr++ {
				dst = append(dst, pl.base+rr*pl.p2+col)
			}
		}
	case classH1:
		if first { // partition the heavy side on x
			dst = append(dst, pl.base+hashing.HashSeeded(r.xSeed, x, pl.ph))
		} else { // broadcast the light side
			for i := 0; i < pl.ph; i++ {
				dst = append(dst, pl.base+i)
			}
		}
	case classH2:
		if !first { // partition the heavy side on y
			dst = append(dst, pl.base+hashing.HashSeeded(r.ySeed, x, pl.ph))
		} else { // broadcast the light side
			for i := 0; i < pl.ph; i++ {
				dst = append(dst, pl.base+i)
			}
		}
	}
	return dst
}

// SpansAttr implements mpc.SpanRouter: the join column of either relation.
// (In a self-join both atoms resolve to name1, matching DestinationsAt.)
func (r *joinRouter) SpansAttr(rel *data.Relation, attr int) bool {
	if rel.Name == r.sh.name1 {
		return attr == r.sh.zPos1
	}
	if rel.Name == r.sh.name2 {
		return attr == r.sh.zPos2
	}
	return false
}

// CompileSpan implements mpc.SpanRouter: the per-tuple work of route — the
// plans-map lookup and the class dispatch — happens once per heavy run.
// Light runs and broadcast sides compile to uniform destination lists the
// engine bulk-ships; partitioned grid sides still hash the private column
// per row, but through a closure with the hitter plan pre-resolved.
func (r *joinRouter) CompileSpan(rel *data.Relation, attr int, z int64, route *mpc.SpanRoute) bool {
	first := rel.Name == r.sh.name1
	pl := r.plans[z]
	if pl == nil { // light: every row of the run hash-joins to one server
		route.Dests = append(route.Dests, hashing.HashSeeded(r.zSeed, z, r.p))
		return true
	}
	cols := rel.Columns()
	switch pl.class {
	case classH12:
		base, p1, p2 := pl.base, pl.p1, pl.p2
		if first {
			col, seed := cols[r.sh.xPos1], r.xSeed
			route.PerRow = func(row int, dst []int) []int {
				gr := hashing.HashSeeded(seed, col[row], p1)
				for c := 0; c < p2; c++ {
					dst = append(dst, base+gr*p2+c)
				}
				return dst
			}
		} else {
			col, seed := cols[r.sh.xPos2], r.ySeed
			route.PerRow = func(row int, dst []int) []int {
				gc := hashing.HashSeeded(seed, col[row], p2)
				for rr := 0; rr < p1; rr++ {
					dst = append(dst, base+rr*p2+gc)
				}
				return dst
			}
		}
	case classH1:
		if first { // partition the heavy side on x
			base, ph := pl.base, pl.ph
			col, seed := cols[r.sh.xPos1], r.xSeed
			route.PerRow = func(row int, dst []int) []int {
				return append(dst, base+hashing.HashSeeded(seed, col[row], ph))
			}
		} else { // broadcast the light side wholesale
			for i := 0; i < pl.ph; i++ {
				route.Dests = append(route.Dests, pl.base+i)
			}
		}
	case classH2:
		if !first { // partition the heavy side on y
			base, ph := pl.base, pl.ph
			col, seed := cols[r.sh.xPos2], r.ySeed
			route.PerRow = func(row int, dst []int) []int {
				return append(dst, base+hashing.HashSeeded(seed, col[row], ph))
			}
		} else { // broadcast the light side wholesale
			for i := 0; i < pl.ph; i++ {
				route.Dests = append(route.Dests, pl.base+i)
			}
		}
	}
	return true
}

// classOf maps a virtual server ID to its §4.1 case.
func (jp *JoinPlan) classOf(id int) hitterClass {
	if id < jp.p {
		return classLight
	}
	i := sort.Search(len(jp.classRanges), func(i int) bool { return jp.classRanges[i].hi > id })
	if i < len(jp.classRanges) && id >= jp.classRanges[i].lo {
		return jp.classRanges[i].class
	}
	return classLight // unreachable for IDs the plan allocated
}

// Execute runs the plan on the unified executor and assembles the
// skew-join result, including the per-class load breakdown.
func (jp *JoinPlan) Execute(db *data.Database) JoinResult {
	res, _ := jp.ExecuteWith(db, exec.Config{}) // no ctx in the config: never errors
	return res
}

// ExecuteWith is Execute with caller-supplied executor configuration (the
// engine passes a pooled exec.Scratch for allocation-free load accounting
// on cached-plan re-executions). The only error is ec.Ctx's cancellation.
func (jp *JoinPlan) ExecuteWith(db *data.Database, ec exec.Config) (JoinResult, error) {
	ec.SkipCompute = ec.SkipCompute || jp.skipJoin
	er, err := exec.Run(jp.Phys, db, ec)
	if err != nil {
		return JoinResult{}, err
	}
	res := JoinResult{
		Output:          er.Output,
		MaxVirtualBits:  er.MaxVirtualBits,
		MaxPhysicalBits: er.MaxPhysicalBits,
		TotalBits:       er.Loads.TotalBits,
		VirtualServers:  jp.Phys.Virtual,
		PredictedTuples: jp.PredictedTuples,
		PredictedBits:   jp.PredictedBits,
		NumH1:           jp.NumH1,
		NumH2:           jp.NumH2,
		NumH12:          jp.NumH12,
	}
	for id, bits := range er.PerServerBits {
		var slot *int64
		switch jp.classOf(id) {
		case classLight:
			slot = &res.ByClass.Light
		case classH1:
			slot = &res.ByClass.H1
		case classH2:
			slot = &res.ByClass.H2
		case classH12:
			slot = &res.ByClass.H12
		}
		if bits > *slot {
			*slot = bits
		}
	}
	return res, nil
}

// VanillaHashJoin runs the baseline standard hash join on z (shares
// (1,1,p)) for the same query, returning output and the max load in bits —
// the algorithm that degrades to Ω(m) under skew (Example 3.3).
func VanillaHashJoin(db *data.Database, p int, seed uint64) ([]data.Tuple, int64) {
	cluster := vanillaRound(db, p, seed)
	q := query.Join2()
	out := cluster.Compute(func(s *mpc.Server) []data.Tuple {
		return join.Join(q, s.Received)
	})
	return out, cluster.Loads().MaxBits
}

// VanillaHashJoinLoads is VanillaHashJoin without the local join: it
// reports only the max load in bits (communication is identical).
func VanillaHashJoinLoads(db *data.Database, p int, seed uint64) int64 {
	return vanillaRound(db, p, seed).Loads().MaxBits
}

func vanillaRound(db *data.Database, p int, seed uint64) *mpc.Cluster {
	family := hashing.NewFamily(seed)
	cluster := mpc.NewCluster(p)
	router := mpc.RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, family.Hash(2, rel.At(row, 1), p))
	})
	if err := cluster.Round(db, router); err != nil {
		panic(err)
	}
	return cluster
}
