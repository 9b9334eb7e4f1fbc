package rounds

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/stats"
)

// input is the planner's view of one stage input: a base relation (rel
// non-nil) or a prior step's output, with the base atoms it was joined
// from and a size estimate. All statistics are frozen at plan time — the
// lowered pipeline is a pure function of (plan, database content, config),
// which is what makes it cacheable.
type input struct {
	vars   []int
	rel    *data.Relation // nil for intermediates
	atoms  []query.Atom   // participating base atoms (the join subtree)
	est    float64        // estimated tuple count (exact for base relations)
	arity  int
	domain int64
	bits   int64 // bits per tuple
	// baseRels resolves subtree atom names to their base relations, so
	// later steps can compute restricted frequencies of an intermediate's
	// constituents without materializing it.
	baseRels map[string]*data.Relation
}

// Lower turns a logical plan into a PipelinePlan over db's statistics: one
// executor stage per step, each with its own virtual-server layout, router
// (heavy-hitter grids per join key in skew-aware mode), and local join.
// Heavy-hitter frequencies of base relations are exact; an intermediate
// input's key frequency is estimated as the product of its subtree atoms'
// restricted frequencies — the join-product skew model — so lowering never
// materializes an intermediate.
func Lower(plan Plan, db *data.Database, cfg Config) *PipelinePlan {
	if cfg.P < 2 {
		panic("rounds: need P >= 2")
	}
	pp := &PipelinePlan{Logical: plan}
	if len(plan.Steps) == 0 {
		db.MustGet(plan.Query.Atoms[0].Name) // surface a missing relation at plan time
		return pp
	}
	inputs := make(map[string]*input)
	for _, a := range plan.Query.Atoms {
		r := db.MustGet(a.Name)
		inputs[a.Name] = &input{
			vars: a.Vars, rel: r, atoms: []query.Atom{a},
			est: float64(r.Size()), arity: r.Arity, domain: r.Domain,
			bits: r.BitsPerTuple(),
		}
	}
	pipe := &exec.Pipeline{Strategy: "multi-round", Physical: cfg.P}
	for si, st := range plan.Steps {
		left, right := inputs[st.Left], inputs[st.Right]
		if left == nil || right == nil {
			panic(fmt.Sprintf("rounds: step %d references unknown input %q/%q", si, st.Left, st.Right))
		}
		stage, out, predBits := planStage(si, st, left, right, cfg)
		pipe.Stages = append(pipe.Stages, stage)
		pipe.PredictedSumMaxBits += predBits
		inputs[st.Output] = out
	}
	pp.Pipe = pipe
	pp.PredictedSumMaxBits = pipe.PredictedSumMaxBits
	return pp
}

// factor is one term of a side's join-key frequency estimate: the ordered
// frequency map of a participating base atom over its share of the join
// variables, plus where those variables sit inside the full join key.
type factor struct {
	fm   *stats.FreqMap
	kIdx []int // positions within JoinVars of the factor's variables
	full bool  // the factor covers every join variable
}

// sideFactors builds the frequency factors of one input for the given join
// variables. For a base relation this is a single exact full-cover factor;
// for an intermediate, one factor per subtree atom sharing join variables.
func sideFactors(in *input, joinVars []int) []factor {
	if len(joinVars) == 0 {
		return nil
	}
	var fs []factor
	for _, a := range in.atoms {
		var pos, kIdx []int
		for ki, v := range joinVars {
			for p, av := range a.Vars {
				if av == v {
					pos = append(pos, p)
					kIdx = append(kIdx, ki)
				}
			}
		}
		if len(pos) == 0 {
			continue
		}
		// Base relations carry exactly one atom — their own — so this scan
		// happens once per (step, base input).
		fs = append(fs, factor{
			fm:   stats.FrequenciesOrdered(relOf(in, a), pos),
			kIdx: kIdx,
			full: len(kIdx) == len(joinVars),
		})
	}
	return fs
}

// relOf resolves the relation backing atom a of input in. For a base input
// it is the input's own relation; for an intermediate, the atom was
// captured at BuildPlan time and its relation still lives in the planner's
// base-input table — sideFactors only ever needs base relations, which the
// planner keeps alive in the atoms slice via this lookup table.
func relOf(in *input, a query.Atom) *data.Relation {
	if in.rel != nil {
		return in.rel
	}
	return in.baseRels[a.Name]
}

// estFreq estimates the frequency of join key k on a side as the product
// of its factors' restricted counts (zero if any factor misses the key).
// Exact when the side is a base relation; the join-product upper-bound
// model otherwise.
func estFreq(fs []factor, k data.Key, scratch data.Tuple) float64 {
	prod := 1.0
	for _, f := range fs {
		for i, idx := range f.kIdx {
			scratch[i] = k.At(idx)
		}
		c := f.fm.Counts[data.KeyOf(scratch[:len(f.kIdx)])]
		if c == 0 {
			return 0
		}
		prod *= float64(c)
	}
	return prod
}

// planStage lowers one step: it detects heavy join keys (exact on base
// sides, join-product-estimated on intermediate sides), allocates their
// §4.1 cartesian grids over virtual servers, and emits the executor stage
// plus the planner's view of the step output and the round's predicted
// maximum per-server load in bits.
func planStage(si int, st Step, left, right *input, cfg Config) (exec.Stage, *input, float64) {
	p := cfg.P
	leftKey := keyPositions(st.LeftVars, st.JoinVars)
	rightKey := keyPositions(st.RightVars, st.JoinVars)
	family := hashing.NewFamily(cfg.Seed*1315423911 + uint64(si) + 1)
	cartesian := len(st.JoinVars) == 0

	type heavyKey struct {
		k      data.Key
		fL, fR float64
	}
	var heavyKeys []heavyKey
	anyCover := false
	var estOut float64
	// Frequency statistics are only collected in skew-aware mode: a plain
	// step is a hash join whose routing needs no statistics at all, so
	// plain lowering stays as cheap as the step router itself.
	if cfg.SkewAware && !cartesian {
		lf := sideFactors(left, st.JoinVars)
		rf := sideFactors(right, st.JoinVars)
		scratch := make(data.Tuple, len(st.JoinVars))
		// Candidate heavy keys come from full-cover factors (a base side
		// always covers the whole key; an intermediate contributes a
		// subtree atom only if it happens to contain every join variable).
		// Keys outside every cover join nothing on that side, but may still
		// be missed hot spots on the other — the same load-only blind spot
		// sampling-based detection accepts.
		seen := make(map[data.Key]bool)
		var cands []heavyKey
		var sumL, sumR float64
		for _, fs := range [][]factor{lf, rf} {
			for _, f := range fs {
				if !f.full {
					continue
				}
				anyCover = true
				for k := range f.fm.Counts {
					if seen[k] {
						continue
					}
					seen[k] = true
					eL := estFreq(lf, k, scratch)
					eR := estFreq(rf, k, scratch)
					estOut += eL * eR
					sumL += eL
					sumR += eR
					cands = append(cands, heavyKey{k, eL, eR})
				}
			}
		}
		// Thresholds are normalized to the estimates' own mass (Σ over
		// candidate keys — exactly the side's size for a base relation),
		// never to the chained size estimate, which can collapse to ~0 for
		// provably tiny intermediates and would then declare every key
		// heavy. The comparison is strict with a one-tuple floor: an
		// estimated frequency of one is never a heavy hitter.
		thrL := math.Max(1, sumL/float64(p))
		thrR := math.Max(1, sumR/float64(p))
		for _, c := range cands {
			if c.fL > thrL || c.fR > thrR {
				heavyKeys = append(heavyKeys, c)
			}
		}
		// Deterministic virtual-server allocation: only the (few) heavy
		// keys need a canonical order, not the full candidate set.
		sort.Slice(heavyKeys, func(i, j int) bool { return heavyKeys[i].k.Less(heavyKeys[j].k) })
	}
	switch {
	case cartesian:
		estOut = left.est * right.est
	case !anyCover:
		// Plain mode, or no full-cover factor anywhere (bushy custom plans):
		// a crude linear guess — later-round predictions degrade, routing
		// does not.
		estOut = left.est + right.est
	}

	// Virtual-server allocation: [0, p) is the light hash range; each heavy
	// key gets a p1×p2 cartesian grid sized by its share of the estimated
	// join product, exactly as §4.1 sizes hitter blocks.
	virtual := p
	heavy := make(map[data.Key]*heavyPlan)
	bL, bR := float64(left.bits), float64(right.bits)
	pred := (left.est*bL + right.est*bR) / float64(p)
	if cartesian {
		g1 := int(math.Max(1, math.Sqrt(float64(p))))
		g2 := p / g1
		if g2 < 1 {
			g2 = 1
		}
		pred = left.est*bL/float64(g1) + right.est*bR/float64(g2)
	}
	if cfg.SkewAware && len(heavyKeys) > 0 {
		var sumK float64
		for _, hk := range heavyKeys {
			sumK += math.Max(1, hk.fL) * math.Max(1, hk.fR)
		}
		for _, hk := range heavyKeys {
			kw := math.Max(1, hk.fL) * math.Max(1, hk.fR)
			ph := int(math.Ceil(float64(p) * kw / sumK))
			r1 := math.Max(1, hk.fL)
			r2 := math.Max(1, hk.fR)
			p1 := int(math.Round(math.Sqrt(float64(ph) * r1 / r2)))
			if p1 < 1 {
				p1 = 1
			}
			if p1 > ph {
				p1 = ph
			}
			p2 := ph / p1
			if p2 < 1 {
				p2 = 1
			}
			heavy[hk.k] = &heavyPlan{base: virtual, p1: p1, p2: p2}
			virtual += p1 * p2
			if grid := r1/float64(p1)*bL + r2/float64(p2)*bR; grid > pred {
				pred = grid
			}
		}
	} else {
		for _, hk := range heavyKeys {
			// Plain hash join: the whole key lands on one server.
			if hot := hk.fL*bL + hk.fR*bR; hot > pred {
				pred = hot
			}
		}
	}

	router := &stepRouter{
		leftName: st.Left, rightName: st.Right,
		leftKey: leftKey, rightKey: rightKey,
		cartesian: cartesian,
		heavy:     heavy, p: p, family: family,
	}

	outArity := len(st.OutVars)
	domain := left.domain
	if right.domain > domain {
		domain = right.domain
	}
	// Columns of the right input contributing new variables, in OutVars
	// order (the left contributes its full schema as the output prefix).
	var rightPosOf []int
	for _, v := range st.OutVars {
		if !containsInt(st.LeftVars, v) {
			for pos, rv := range st.RightVars {
				if rv == v {
					rightPosOf = append(rightPosOf, pos)
				}
			}
		}
	}

	stage := exec.Stage{
		Plan: &exec.PhysicalPlan{
			Strategy: "multi-round",
			Virtual:  virtual,
			Physical: p,
			Router:   router,
		},
		LocalFragment: localJoin(st, leftKey, rightKey, rightPosOf, outArity, domain),
		OutName:       st.Output,
		OutArity:      outArity,
		OutDomain:     domain,
	}
	// Base inputs keyed on a single column route span-wise when partitioned
	// (stepRouter implements mpc.SpanRouter for exactly that shape).
	// Intermediates are rebuilt every round and never carry an index; a
	// self-joined input is classified as left by the router, so only the
	// left key is hinted.
	if !cartesian {
		if left.rel != nil && len(leftKey) == 1 {
			stage.Plan.PartitionHints = append(stage.Plan.PartitionHints, exec.PartitionHint{Rel: st.Left, Attr: leftKey[0]})
		}
		if right.rel != nil && len(rightKey) == 1 && st.Right != st.Left {
			stage.Plan.PartitionHints = append(stage.Plan.PartitionHints, exec.PartitionHint{Rel: st.Right, Attr: rightKey[0]})
		}
	}
	for _, in := range []struct {
		name string
		in   *input
	}{{st.Left, left}, {st.Right, right}} {
		if in.in.rel != nil {
			stage.Base = append(stage.Base, in.name)
		} else {
			stage.Resident = append(stage.Resident, in.name)
		}
	}

	out := &input{
		vars:  st.OutVars,
		atoms: append(append([]query.Atom(nil), left.atoms...), right.atoms...),
		est:   estOut,
		arity: outArity, domain: domain,
		bits:     int64(outArity) * int64(data.BitsPerValue(domain)),
		baseRels: mergeBaseRels(left, right),
	}
	return stage, out, pred
}

// mergeBaseRels combines the base-relation lookup tables of two inputs so
// later steps can resolve any subtree atom's relation.
func mergeBaseRels(left, right *input) map[string]*data.Relation {
	m := make(map[string]*data.Relation)
	for _, in := range []*input{left, right} {
		if in.rel != nil {
			m[in.rel.Name] = in.rel
		}
		for name, r := range in.baseRels {
			m[name] = r
		}
	}
	return m
}

// localJoin builds a stage's local computation: index the right fragment by
// its key columns, probe with the left key columns, and append matches to
// the output fragment column-wise.
func localJoin(st Step, leftKey, rightKey, rightPosOf []int, outArity int, domain int64) func(s *mpc.Server) *data.Relation {
	leftName, rightName, outName := st.Left, st.Right, st.Output
	return func(s *mpc.Server) *data.Relation {
		lf, rf := s.Fragment(leftName), s.Fragment(rightName)
		if lf == nil || rf == nil || lf.Size() == 0 || rf.Size() == 0 {
			return nil
		}
		index := make(map[data.Key][]int, rf.Size())
		rKeyCols := make([][]int64, len(rightKey))
		for a, pos := range rightKey {
			rKeyCols[a] = rf.Column(pos)
		}
		kbuf := make(data.Tuple, len(rightKey))
		for i := 0; i < rf.Size(); i++ {
			for a, col := range rKeyCols {
				kbuf[a] = col[i]
			}
			k := data.KeyOf(kbuf)
			index[k] = append(index[k], i)
		}
		lCols, rCols := lf.Columns(), rf.Columns()
		lArity := lf.Arity
		lkbuf := make(data.Tuple, len(leftKey))
		row := make(data.Tuple, outArity)
		out := data.NewRelation(outName, outArity, domain)
		for li := 0; li < lf.Size(); li++ {
			for a, pos := range leftKey {
				lkbuf[a] = lCols[pos][li]
			}
			for _, ri := range index[data.KeyOf(lkbuf)] {
				for a := 0; a < lArity; a++ {
					row[a] = lCols[a][li]
				}
				for a, pos := range rightPosOf {
					row[lArity+a] = rCols[pos][ri]
				}
				out.Add(row...)
			}
		}
		if out.Size() == 0 {
			return nil
		}
		return out
	}
}

// heavyPlan is a per-heavy-key cartesian grid of virtual servers.
type heavyPlan struct {
	base, p1, p2 int
}

// Hash-family dimensions used by one join round.
const dimKey, dimLeft, dimRight = 0, 1, 2

// stepRouter routes one binary-join round: heavy keys to their cartesian
// grids, cartesian steps over a p-server grid, everything else by hash
// join on the key columns. Inputs are identified by relation name — base
// relations arriving from the input servers and resident intermediates
// shuffled server-to-server route identically. Routing reads key columns
// in place; its projection scratch makes it per-sender
// (mpc.PerSenderRouter).
type stepRouter struct {
	leftName, rightName string
	leftKey, rightKey   []int
	cartesian           bool
	heavy               map[data.Key]*heavyPlan
	p                   int
	family              *hashing.Family
	proj                data.Tuple // key-projection scratch
}

// ForSender implements mpc.PerSenderRouter.
func (r *stepRouter) ForSender() mpc.Router {
	c := *r
	c.proj = nil
	return &c
}

func (r *stepRouter) keyScratch(n int) data.Tuple {
	want := len(r.leftKey)
	if len(r.rightKey) > want {
		want = len(r.rightKey)
	}
	if r.proj == nil {
		r.proj = make(data.Tuple, want)
	}
	return r.proj[:n]
}

// DestinationsAt implements mpc.Router, reading the key columns (and, on
// the grid paths, all columns for the row hash) in place. Relations that
// are not this step's inputs are not routed.
//
//skewlint:noalloc
func (r *stepRouter) DestinationsAt(rel *data.Relation, row int, dst []int) []int {
	isLeft := rel.Name == r.leftName
	if !isLeft && rel.Name != r.rightName {
		return dst
	}
	cols := rel.Columns()
	kp := r.rightKey
	if isLeft {
		kp = r.leftKey
	}
	key := r.keyScratch(len(kp))
	for i, pos := range kp {
		key[i] = cols[pos][row]
	}
	if hp := r.heavy[data.KeyOf(key)]; hp != nil {
		return r.gridRoute(isLeft, hp.base, hp.p1, hp.p2, rowHashCols(cols, row), dst)
	}
	if r.cartesian {
		g1, g2 := r.cartesianGrid()
		return r.gridRoute(isLeft, 0, g1, g2, rowHashCols(cols, row), dst)
	}
	return append(dst, r.keyHash(key))
}

// SpansAttr implements mpc.SpanRouter: a single-column join key of either
// input (the run's value is the whole key, so one heavy-map lookup decides
// the routing of the entire run).
func (r *stepRouter) SpansAttr(rel *data.Relation, attr int) bool {
	if r.cartesian {
		return false
	}
	if rel.Name == r.leftName {
		return len(r.leftKey) == 1 && attr == r.leftKey[0]
	}
	if rel.Name == r.rightName {
		return len(r.rightKey) == 1 && attr == r.rightKey[0]
	}
	return false
}

// CompileSpan implements mpc.SpanRouter. Light runs compile to their single
// hash-join server; heavy runs keep the per-row grid hash but with the
// heavy plan resolved once.
func (r *stepRouter) CompileSpan(rel *data.Relation, attr int, v int64, route *mpc.SpanRoute) bool {
	isLeft := rel.Name == r.leftName
	if hp := r.heavy[data.Key1(v)]; hp != nil {
		cols := rel.Columns()
		base, p1, p2 := hp.base, hp.p1, hp.p2
		fam := r.family
		if isLeft {
			route.PerRow = func(row int, dst []int) []int {
				gr := fam.Hash(dimLeft, rowHashCols(cols, row), p1)
				for c := 0; c < p2; c++ {
					dst = append(dst, base+gr*p2+c)
				}
				return dst
			}
		} else {
			route.PerRow = func(row int, dst []int) []int {
				gc := fam.Hash(dimRight, rowHashCols(cols, row), p2)
				for rr := 0; rr < p1; rr++ {
					dst = append(dst, base+rr*p2+gc)
				}
				return dst
			}
		}
		return true
	}
	key := r.keyScratch(1)
	key[0] = v
	route.Dests = append(route.Dests, r.keyHash(key))
	return true
}

// cartesianGrid splits p into a g1 × g2 grid for key-less steps.
func (r *stepRouter) cartesianGrid() (int, int) {
	g1 := int(math.Max(1, math.Sqrt(float64(r.p))))
	return g1, r.p / g1
}

// gridRoute places a left row in one grid row (replicated across columns)
// and a right row in one grid column (replicated across rows).
//
//skewlint:noalloc
func (r *stepRouter) gridRoute(isLeft bool, base, p1, p2 int, rh int64, dst []int) []int {
	if isLeft {
		row := r.family.Hash(dimLeft, rh, p1)
		for c := 0; c < p2; c++ {
			dst = append(dst, base+row*p2+c)
		}
	} else {
		col := r.family.Hash(dimRight, rh, p2)
		for rr := 0; rr < p1; rr++ {
			dst = append(dst, base+rr*p2+col)
		}
	}
	return dst
}

// keyHash maps a join key to one of the p light servers.
func (r *stepRouter) keyHash(key data.Tuple) int {
	h := 0
	for i, v := range key {
		h = h*31 + r.family.Hash(dimKey+i, v, 1<<30)
	}
	if h < 0 {
		h = -h
	}
	return h % r.p
}

// keyPositions maps join variables to their column positions in a schema.
func keyPositions(schema, joinVars []int) []int {
	var pos []int
	for _, jv := range joinVars {
		for i, v := range schema {
			if v == jv {
				pos = append(pos, i)
			}
		}
	}
	return pos
}

// rowHashCols folds a whole row into one value for the non-key dimension
// of a cartesian grid.
func rowHashCols(cols [][]int64, row int) int64 {
	h := int64(1469598103934665603)
	for _, col := range cols {
		h = h ^ col[row]
		h *= 1099511628211
	}
	return h
}
