package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/data"
	"repro/internal/join"
)

// servers is the simulated server count p of every workload.
const servers = 64

// workload is one named input family and traffic mix.
type workload struct {
	name string
	// instances is how many independently seeded databases (each with its
	// own Session) a run sets up and cycles its operations over. Several
	// instances keep one run's figures from hinging on a single draw of
	// the skewed generators, and give setup_s a median.
	instances int
	// noCache runs every Exec WithoutCache, so each operation plans.
	noCache bool
	// multiRound opens the Session with ConsiderMultiRound.
	multiRound bool
	// churn adds a writer goroutine that applies deltas and advances a
	// standing query beside the reading client.
	churn bool
	query func() *repro.Query
	// build generates one instance's relations from its seed; tiny shrinks
	// them for the smoke test.
	build func(seed int64, tiny bool) []*repro.Relation
}

var workloads = []*workload{
	{
		name:      "join2-zipf-hit",
		instances: 4,
		query:     repro.Join2Query,
		build: func(seed int64, tiny bool) []*repro.Relation {
			m := 2000
			if tiny {
				m = 200
			}
			return []*repro.Relation{
				repro.ZipfRelation("S1", m, 1<<20, 1, 1.6, 300, subSeed(seed, 1)),
				repro.ZipfRelation("S2", m, 1<<20, 1, 1.6, 300, subSeed(seed, 2)),
			}
		},
	},
	{
		name:      "triangle-uniform-hit",
		instances: 8,
		query:     repro.TriangleQuery,
		build: func(seed int64, tiny bool) []*repro.Relation {
			m, domain := 20000, int64(1000)
			if tiny {
				m, domain = 300, 60
			}
			return []*repro.Relation{
				repro.UniformRelation("S1", 2, m, domain, subSeed(seed, 1)),
				repro.UniformRelation("S2", 2, m, domain, subSeed(seed, 2)),
				repro.UniformRelation("S3", 2, m, domain, subSeed(seed, 3)),
			}
		},
	},
	{
		name:       "triangle-graph-cold",
		instances:  16,
		noCache:    true,
		multiRound: true,
		query:      repro.TriangleQuery,
		build: func(seed int64, tiny bool) []*repro.Relation {
			edges, vertices := 5000, int64(2000)
			if tiny {
				edges, vertices = 200, 100
			}
			g := repro.SkewedGraphRelation("S1", edges, vertices, 1.6, subSeed(seed, 1))
			rels := []*repro.Relation{g}
			for _, name := range []string{"S2", "S3"} {
				c := g.Clone()
				c.Name = name
				rels = append(rels, c)
			}
			return rels
		},
	},
	{
		name:      "join2-churn",
		instances: 3,
		churn:     true,
		query:     repro.Join2Query,
		build: func(seed int64, tiny bool) []*repro.Relation {
			m, domain := 20000, int64(1<<20)
			if tiny {
				m, domain = 300, 4096
			}
			return []*repro.Relation{
				repro.MatchingRelation("S1", 2, m, domain, subSeed(seed, 1)),
				repro.MatchingRelation("S2", 2, m, domain, subSeed(seed, 2)),
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent generator seed from a parent seed and a
// path of indices (splitmix64 over the sequence).
func subSeed(seed int64, path ...int64) int64 {
	h := uint64(seed)
	for _, p := range path {
		h = mix64(h ^ mix64(uint64(p)+0x9e3779b97f4a7c15))
	}
	return int64(h >> 1)
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// summary is an answer set's size and order-independent checksum.
type summary struct {
	count int
	sum   uint64
}

func tupleHash(t data.Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = mix64(h ^ uint64(v))
	}
	return h
}

func checksum(ts []data.Tuple) uint64 {
	var s uint64
	for _, t := range ts {
		s += tupleHash(t)
	}
	return s
}

func summarize(ts []data.Tuple) summary { return summary{len(ts), checksum(ts)} }

// expectations holds the correct answer summary for each database version
// an instance goes through: one entry for read-only workloads, one per
// applied delta on churn (the writer pushes the next version's entry before
// it applies the delta, so a reader never sees a version without one).
type expectations struct {
	mu   sync.RWMutex
	base uint64 // database version of list[0]
	list []summary
}

func (e *expectations) push(s summary) {
	e.mu.Lock()
	e.list = append(e.list, s)
	e.mu.Unlock()
}

func (e *expectations) at(v uint64) (summary, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if v < e.base || v-e.base >= uint64(len(e.list)) {
		return summary{}, false
	}
	return e.list[v-e.base], true
}

// matches reports whether an answer of the given size (and, when sum is
// non-nil, checksum) is correct for some database version in [lo, hi] —
// the versions an Exec could have snapshotted between the two reads.
func (e *expectations) matches(lo, hi uint64, count int, sum *uint64) bool {
	for v := lo; v <= hi; v++ {
		if s, ok := e.at(v); ok && s.count == count && (sum == nil || *sum == s.sum) {
			return true
		}
	}
	return false
}

// instance is one seeded database with its Session (and, on churn, its
// standing query and writer model).
type instance struct {
	seed     int64
	q        *repro.Query
	db       *repro.Database
	sess     *repro.Session
	opts     []repro.ExecOption
	strategy string
	exp      expectations

	standing   *repro.StandingQuery
	model      *churnModel
	standCount int // live rows of the standing result, tracked from deltas

	rep *replica // traced re-implementation of Exec; built by the traced phase
}

// setupInstance builds one instance: generation, Open, the standing seed
// (churn) and the first execution are timed as its set-up. After the clock
// stops it summarizes the first execution's answers before computing the
// oracle, so the two answer sets are never live at once.
func setupInstance(ctx context.Context, wl *workload, seed int64, tiny bool) (*instance, time.Duration, summary, error) {
	t0 := time.Now()
	inst := &instance{seed: seed, q: wl.query(), db: repro.NewDatabase()}
	for _, r := range wl.build(seed, tiny) {
		inst.db.Put(r)
	}
	sess, err := repro.Open(repro.Config{P: servers, Seed: uint64(subSeed(seed, 0)), ConsiderMultiRound: wl.multiRound})
	if err != nil {
		return nil, 0, summary{}, fmt.Errorf("open: %w", err)
	}
	inst.sess = sess
	if wl.noCache {
		inst.opts = []repro.ExecOption{repro.WithoutCache()}
	}
	if wl.churn {
		if inst.standing, err = sess.Standing(ctx, inst.q, inst.db); err != nil {
			return nil, 0, summary{}, fmt.Errorf("standing: %w", err)
		}
	}
	res, err := sess.Exec(ctx, inst.q, inst.db, inst.opts...)
	elapsed := time.Since(t0)
	if err != nil {
		return nil, 0, summary{}, fmt.Errorf("first exec: %w", err)
	}
	inst.strategy = res.Plan.Strategy.String()
	first := summarize(res.Output) // res is dead from here on

	oracle := summarize(join.Join(inst.q, join.FromDatabase(inst.db)))
	inst.exp.base = inst.db.Version()
	inst.exp.list = []summary{oracle}
	if wl.churn {
		if inst.model, err = newChurnModel(inst.q, inst.db, subSeed(seed, 9)); err != nil {
			return nil, 0, summary{}, err
		}
		if inst.model.ans != oracle {
			return nil, 0, summary{}, fmt.Errorf("churn model %+v disagrees with the oracle %+v", inst.model.ans, oracle)
		}
		inst.standCount = len(inst.standing.Result())
	}
	return inst, elapsed, first, nil
}

func (inst *instance) close() {
	if inst.standing != nil {
		inst.standing.Close()
	}
	inst.sess.Close()
}

// finalCheck verifies a churn instance after the run: the standing result,
// a fresh uncached Exec and the single-process oracle on the final database
// agree, and all three match the writer's model.
func (inst *instance) finalCheck(ctx context.Context) error {
	oracle := join.Join(inst.q, join.FromDatabase(inst.db.Snapshot()))
	if s := summarize(oracle); s != inst.model.ans {
		return fmt.Errorf("oracle %+v disagrees with the writer's model %+v", s, inst.model.ans)
	}
	if !join.EqualTupleSets(inst.standing.Result(), oracle) {
		return fmt.Errorf("standing result differs from the oracle")
	}
	fresh, err := inst.sess.Exec(ctx, inst.q, inst.db, repro.WithoutCache())
	if err != nil {
		return fmt.Errorf("fresh exec: %w", err)
	}
	if !join.EqualTupleSets(fresh.Output, oracle) {
		return fmt.Errorf("fresh uncached Exec differs from the oracle")
	}
	return nil
}

// churnModel mirrors a churn instance's two matching relations S1(x,z),
// S2(y,z) on the writer's side: it generates the seeded deltas and keeps
// the answer count and checksum of Join2 current as they are applied.
type churnModel struct {
	rng  *rand.Rand
	rels [2]*liveRel
	// pos places x, y and z in an answer tuple (query variable order).
	pos [3]int
	ans summary
	t   data.Tuple
}

// liveRel is one matching relation: every value occurs at most once per
// column.
type liveRel struct {
	name   string
	domain int64
	rows   [][2]int64
	byA    map[int64]int // first-column value → row index
	byZ    map[int64]int // join-column value → row index
}

func newChurnModel(q *repro.Query, db *repro.Database, seed int64) (*churnModel, error) {
	m := &churnModel{
		rng: rand.New(rand.NewSource(seed)),
		pos: [3]int{q.Atoms[0].Vars[0], q.Atoms[1].Vars[0], q.Atoms[0].Vars[1]},
		t:   make(data.Tuple, q.NumVars()),
	}
	for i, a := range q.Atoms {
		r := db.MustGet(a.Name)
		lr := &liveRel{name: a.Name, domain: r.Domain, byA: map[int64]int{}, byZ: map[int64]int{}}
		m.rels[i] = lr
		for row := 0; row < r.Size(); row++ {
			v, z := r.At(row, 0), r.At(row, 1)
			_, dupV := lr.byA[v]
			_, dupZ := lr.byZ[z]
			if dupV || dupZ {
				return nil, fmt.Errorf("%s is not a matching", lr.name)
			}
			lr.byA[v], lr.byZ[z] = len(lr.rows), len(lr.rows)
			lr.rows = append(lr.rows, [2]int64{v, z})
		}
	}
	for z, i := range m.rels[0].byZ {
		if j, ok := m.rels[1].byZ[z]; ok {
			m.count(m.rels[0].rows[i][0], m.rels[1].rows[j][0], z, 1)
		}
	}
	return m, nil
}

// count adds (sign 1) or removes (sign -1) the answer (x, y, z).
func (m *churnModel) count(x, y, z int64, sign int) {
	m.t[m.pos[0]], m.t[m.pos[1]], m.t[m.pos[2]] = x, y, z
	m.ans.count += sign
	m.ans.sum += uint64(sign) * tupleHash(m.t)
}

// answerWith counts the answer a row (a, z) of relation r forms with the
// other relation's row on z, if any.
func (m *churnModel) answerWith(r int, a, z int64, sign int) {
	j, ok := m.rels[1-r].byZ[z]
	if !ok {
		return
	}
	b := m.rels[1-r].rows[j][0]
	if r == 0 {
		m.count(a, b, z, sign)
	} else {
		m.count(b, a, z, sign)
	}
}

func (m *churnModel) add(r int, a, z int64) {
	lr := m.rels[r]
	m.answerWith(r, a, z, 1)
	lr.byA[a], lr.byZ[z] = len(lr.rows), len(lr.rows)
	lr.rows = append(lr.rows, [2]int64{a, z})
}

func (m *churnModel) remove(r, i int) [2]int64 {
	lr := m.rels[r]
	row := lr.rows[i]
	m.answerWith(r, row[0], row[1], -1)
	delete(lr.byA, row[0])
	delete(lr.byZ, row[1])
	last := len(lr.rows) - 1
	if i != last {
		moved := lr.rows[last]
		lr.rows[i] = moved
		lr.byA[moved[0]], lr.byZ[moved[1]] = i, i
	}
	lr.rows = lr.rows[:last]
	return row
}

// churnDeletes is the number of delete/insert pairs in one delta: 32 deletes
// of live rows and 32 fresh inserts, so the database keeps its size.
const churnDeletes = 32

// next draws the next delta and applies it to the model. Deletes come
// first; inserts use values live in neither column of their relation and
// not deleted by this delta, so both relations stay matchings.
func (m *churnModel) next() *repro.Delta {
	d := repro.NewDelta()
	type freedValue struct {
		r, col int
		v      int64
	}
	freed := map[freedValue]bool{}
	targets := make([]int, churnDeletes)
	for i := range targets {
		r := m.rng.Intn(2)
		targets[i] = r
		row := m.remove(r, m.rng.Intn(len(m.rels[r].rows)))
		freed[freedValue{r, 0, row[0]}], freed[freedValue{r, 1, row[1]}] = true, true
		d.Delete(m.rels[r].name, row[0], row[1])
	}
	for _, r := range targets {
		lr := m.rels[r]
		for {
			a, z := m.rng.Int63n(lr.domain), m.rng.Int63n(lr.domain)
			_, liveA := lr.byA[a]
			_, liveZ := lr.byZ[z]
			if liveA || liveZ || freed[freedValue{r, 0, a}] || freed[freedValue{r, 1, z}] {
				continue
			}
			m.add(r, a, z)
			d.Insert(lr.name, a, z)
			break
		}
	}
	return d
}
