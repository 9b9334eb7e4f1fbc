package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

func relOf(name string, arity int, domain int64, rows ...[]int64) *data.Relation {
	r := data.NewRelation(name, arity, domain)
	for _, row := range rows {
		r.Add(row...)
	}
	return r
}

func TestJoinTwoRelations(t *testing.T) {
	// q(x,y,z) = S1(x,z), S2(y,z)
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}, []int64{2, 6}),
		"S2": relOf("S2", 2, 10, []int64{3, 5}, []int64{4, 5}, []int64{7, 9}),
	}
	out := SortTuples(Join(q, rels))
	// z=5 joins (1) with (3),(4): outputs (1,3,5),(1,4,5).
	want := []data.Tuple{{1, 3, 5}, {1, 4, 5}}
	if !EqualTupleSets(out, want) {
		t.Errorf("Join = %v, want %v", out, want)
	}
}

func TestJoinTriangle(t *testing.T) {
	q := query.Triangle()
	// Edges forming triangle (1,2,3) plus noise.
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 2}, []int64{4, 5}),
		"S2": relOf("S2", 2, 10, []int64{2, 3}, []int64{5, 6}),
		"S3": relOf("S3", 2, 10, []int64{3, 1}, []int64{6, 7}),
	}
	out := Join(q, rels)
	want := []data.Tuple{{1, 2, 3}}
	if !EqualTupleSets(out, want) {
		t.Errorf("Join = %v, want %v", out, want)
	}
}

func TestJoinCartesian(t *testing.T) {
	q := query.Cartesian(2)
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 1, 10, []int64{1}, []int64{2}),
		"S2": relOf("S2", 1, 10, []int64{8}, []int64{9}),
	}
	out := Join(q, rels)
	if len(out) != 4 {
		t.Errorf("cartesian size = %d, want 4", len(out))
	}
}

func TestJoinEmptyRelation(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}),
		"S2": relOf("S2", 2, 10),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join with empty relation = %v", out)
	}
}

func TestJoinMissingRelation(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join with missing relation = %v", out)
	}
	if out := NestedLoop(q, rels); len(out) != 0 {
		t.Errorf("NestedLoop with missing relation = %v", out)
	}
}

func TestJoinNoMatches(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}),
		"S2": relOf("S2", 2, 10, []int64{2, 6}),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join = %v, want empty", out)
	}
}

func TestJoinSingleAtomIdentity(t *testing.T) {
	q := query.MustParse("q(x,y) = R(x,y)")
	r := relOf("R", 2, 10, []int64{1, 2}, []int64{3, 4})
	out := SortTuples(Join(q, map[string]*data.Relation{"R": r}))
	want := []data.Tuple{{1, 2}, {3, 4}}
	if !EqualTupleSets(out, want) {
		t.Errorf("Join = %v", out)
	}
}

func TestJoinAgainstNestedLoopRandom(t *testing.T) {
	queries := []*query.Query{
		query.Join2(), query.Triangle(), query.Path(3), query.Star(2), query.Cycle(4), query.Cartesian(2),
	}
	rng := rand.New(rand.NewSource(7))
	for _, q := range queries {
		for trial := 0; trial < 5; trial++ {
			rels := make(map[string]*data.Relation)
			for _, a := range q.Atoms {
				// Small domain to force collisions and matches.
				r := data.NewRelation(a.Name, a.Arity(), 6)
				seen := make(map[string]bool)
				for i := 0; i < 12; i++ {
					tu := make(data.Tuple, a.Arity())
					for j := range tu {
						tu[j] = int64(rng.Intn(6))
					}
					if !seen[tu.Key()] {
						seen[tu.Key()] = true
						r.Add(tu...)
					}
				}
				rels[a.Name] = r
			}
			fast := Join(q, rels)
			slow := NestedLoop(q, rels)
			if !EqualTupleSets(fast, slow) {
				t.Errorf("%s trial %d: hash join and nested loop disagree (%d vs %d tuples)",
					q.Name, trial, len(fast), len(slow))
			}
		}
	}
}

func TestJoinProducesNoDuplicates(t *testing.T) {
	q := query.Triangle()
	db := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 200, Domain: 20},
		{Name: "S2", Arity: 2, M: 180, Domain: 20},
		{Name: "S3", Arity: 2, M: 150, Domain: 20},
	}, 3)
	out := Join(q, FromDatabase(db))
	if len(Dedup(append([]data.Tuple(nil), out...))) != len(out) {
		t.Error("Join produced duplicate outputs on duplicate-free input")
	}
}

func TestPlanOrderStartsConnected(t *testing.T) {
	// For a path query, the plan should never insert a cross product: each
	// subsequent atom must share a variable with the bound set.
	q := query.Path(4)
	rels := make(map[string]*data.Relation)
	for _, a := range q.Atoms {
		rels[a.Name] = relOf(a.Name, 2, 10, []int64{1, 2})
	}
	order := planOrder(q, rels)
	bound := map[int]bool{}
	for step, j := range order {
		if step > 0 {
			shared := false
			for _, v := range q.Atoms[j].Vars {
				if bound[v] {
					shared = true
				}
			}
			if !shared {
				t.Errorf("step %d atom %d shares no variable with prefix", step, j)
			}
		}
		for _, v := range q.Atoms[j].Vars {
			bound[v] = true
		}
	}
}

func TestJoinLimitTruncates(t *testing.T) {
	// Cartesian 10×10 = 100 answers; limit 7 returns exactly 7 of them.
	q := query.Cartesian(2)
	r1 := data.NewRelation("S1", 1, 100)
	r2 := data.NewRelation("S2", 1, 100)
	for i := int64(0); i < 10; i++ {
		r1.Add(i)
		r2.Add(i + 50)
	}
	rels := map[string]*data.Relation{"S1": r1, "S2": r2}
	got := JoinLimit(q, rels, 7)
	if len(got) != 7 {
		t.Fatalf("JoinLimit = %d tuples, want 7", len(got))
	}
	// Every returned tuple must be a genuine answer.
	full := Join(q, rels)
	set := map[string]bool{}
	for _, tu := range full {
		set[tu.Key()] = true
	}
	for _, tu := range got {
		if !set[tu.Key()] {
			t.Errorf("JoinLimit fabricated tuple %v", tu)
		}
	}
}

func TestJoinLimitZeroMeansUnlimited(t *testing.T) {
	q := query.Cartesian(2)
	r1 := data.NewRelation("S1", 1, 100)
	r2 := data.NewRelation("S2", 1, 100)
	for i := int64(0); i < 5; i++ {
		r1.Add(i)
		r2.Add(i)
	}
	rels := map[string]*data.Relation{"S1": r1, "S2": r2}
	if got := JoinLimit(q, rels, 0); len(got) != 25 {
		t.Errorf("unlimited JoinLimit = %d, want 25", len(got))
	}
}

func TestSortTuples(t *testing.T) {
	ts := []data.Tuple{{2, 1}, {1, 9}, {1, 2}}
	SortTuples(ts)
	if ts[0].Key() != "1,2" || ts[1].Key() != "1,9" || ts[2].Key() != "2,1" {
		t.Errorf("SortTuples = %v", ts)
	}
}

func TestEqualTupleSets(t *testing.T) {
	a := []data.Tuple{{1, 2}, {3, 4}}
	b := []data.Tuple{{3, 4}, {1, 2}}
	if !EqualTupleSets(a, b) {
		t.Error("order should not matter")
	}
	if EqualTupleSets(a, a[:1]) {
		t.Error("length mismatch accepted")
	}
	c := []data.Tuple{{1, 2}, {1, 2}}
	if EqualTupleSets(a, c) {
		t.Error("multiset counts must match")
	}
}

func TestDedup(t *testing.T) {
	ts := []data.Tuple{{1}, {2}, {1}, {3}, {2}}
	got := Dedup(ts)
	if len(got) != 3 || got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Errorf("Dedup = %v", got)
	}
}

// Property: joining a relation with itself's copy under a two-atom chain
// yields exactly the composable pairs.
func TestJoinChainCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := query.Path(2) // S1(x1,x2), S2(x2,x3)
		r1 := data.NewRelation("S1", 2, 5)
		r2 := data.NewRelation("S2", 2, 5)
		seen1 := map[string]bool{}
		seen2 := map[string]bool{}
		for i := 0; i < 10; i++ {
			t1 := data.Tuple{int64(rng.Intn(5)), int64(rng.Intn(5))}
			if !seen1[t1.Key()] {
				seen1[t1.Key()] = true
				r1.Add(t1...)
			}
			t2 := data.Tuple{int64(rng.Intn(5)), int64(rng.Intn(5))}
			if !seen2[t2.Key()] {
				seen2[t2.Key()] = true
				r2.Add(t2...)
			}
		}
		rels := map[string]*data.Relation{"S1": r1, "S2": r2}
		// Count matches directly.
		want := 0
		r1.Each(func(_ int, a data.Tuple) bool {
			r2.Each(func(_ int, b data.Tuple) bool {
				if a[1] == b[0] {
					want++
				}
				return true
			})
			return true
		})
		return len(Join(q, rels)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// joinLimitReference is the one-slice-per-answer JoinLimit that predates
// the exact-size kernel, kept verbatim as the oracle for answers, answer
// order and truncation.
func joinLimitReference(q *query.Query, rels map[string]*data.Relation, limit int) []data.Tuple {
	k := q.NumVars()
	order := planOrder(q, rels)

	// bindings holds partial assignments to the k query variables; bound
	// tracks which variables are assigned (same for every binding at a
	// given step).
	bindings := []data.Tuple{make(data.Tuple, k)}
	bound := make([]bool, k)

	for _, j := range order {
		atom := q.Atoms[j]
		rel := rels[atom.Name]
		if rel == nil || rel.Size() == 0 {
			return nil
		}
		// Split atom variables into already-bound (join positions) and new.
		var joinPos []int // positions within the atom
		var joinVar []int // corresponding query variables
		for pos, v := range atom.Vars {
			if bound[v] {
				joinPos = append(joinPos, pos)
				joinVar = append(joinVar, v)
			}
		}
		// Build the hash index from the key columns only — the payload
		// columns are not touched until a binding actually extends.
		m := rel.Size()
		keyCols := make([][]int64, len(joinPos))
		for a, pos := range joinPos {
			keyCols[a] = rel.Column(pos)
		}
		index := make(map[data.Key][]int, m)
		key := make(data.Tuple, len(joinPos))
		for i := 0; i < m; i++ {
			for a, col := range keyCols {
				key[a] = col[i]
			}
			ks := data.KeyOf(key)
			index[ks] = append(index[ks], i)
		}
		cols := rel.Columns()
		var next []data.Tuple
		probe := make(data.Tuple, len(joinVar))
	extend:
		for _, b := range bindings {
			for a, v := range joinVar {
				probe[a] = b[v]
			}
			for _, ti := range index[data.KeyOf(probe)] {
				nb := append(data.Tuple(nil), b...)
				for pos, v := range atom.Vars {
					nb[v] = cols[pos][ti]
				}
				next = append(next, nb)
				if limit > 0 && len(next) >= limit {
					break extend
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil
		}
		for _, v := range atom.Vars {
			bound[v] = true
		}
	}
	return bindings
}

// skewedRels draws a duplicate-free instance of q: each relation holds m
// rows over a small domain with the first column Zipf-skewed, so buckets
// are uneven and multi-atom plans carry intermediates larger than the
// final answer set.
func skewedRels(q *query.Query, rng *rand.Rand, m int, domain int64) map[string]*data.Relation {
	rels := make(map[string]*data.Relation)
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(domain-1))
	for _, a := range q.Atoms {
		r := data.NewRelation(a.Name, a.Arity(), domain)
		seen := make(map[data.Key]bool)
		for tries := 0; r.Size() < m && tries < 20*m; tries++ {
			tu := make(data.Tuple, a.Arity())
			tu[0] = int64(zipf.Uint64())
			for j := 1; j < len(tu); j++ {
				tu[j] = rng.Int63n(domain)
			}
			if k := data.KeyOf(tu); !seen[k] {
				seen[k] = true
				r.Add(tu...)
			}
		}
		rels[a.Name] = r
	}
	return rels
}

func equalTupleLists(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestJoinLimitMatchesReference pins the exact-size kernel to the
// reference: same answers, same order, same truncation, for limits around
// the answer count — including limits that cut an intermediate step, where
// the truncated output is shorter than the limit.
func TestJoinLimitMatchesReference(t *testing.T) {
	queries := []*query.Query{query.Join2(), query.Triangle(), query.Path(3)}
	rng := rand.New(rand.NewSource(13))
	intermediateCuts := 0
	for _, q := range queries {
		for trial := 0; trial < 6; trial++ {
			rels := skewedRels(q, rng, 40+rng.Intn(60), 8+int64(rng.Intn(8)))
			answers := len(joinLimitReference(q, rels, 0))
			for _, limit := range []int{0, 1, 7, answers - 1, answers, answers + 5} {
				want := joinLimitReference(q, rels, limit)
				got := JoinLimit(q, rels, limit)
				if !equalTupleLists(got, want) {
					t.Fatalf("%s trial %d limit %d: JoinLimit (%d tuples) differs from reference (%d tuples)",
						q.Name, trial, limit, len(got), len(want))
				}
				if limit > 0 && len(want) < limit && len(want) < answers {
					intermediateCuts++
				}
			}
		}
	}
	if intermediateCuts == 0 {
		t.Fatal("no case truncated an intermediate step; the instances do not exercise it")
	}
}

// TestJoinLimitTuplesDoNotAlias: the answers share one arena, but each is
// capped at the query's arity, so growing or writing one tuple never
// reaches another.
func TestJoinLimitTuplesDoNotAlias(t *testing.T) {
	q := query.Triangle()
	rels := skewedRels(q, rand.New(rand.NewSource(5)), 80, 10)
	out := JoinLimit(q, rels, 0)
	if len(out) < 3 {
		t.Fatalf("instance too small: %d answers", len(out))
	}
	k := q.NumVars()
	before := make([]data.Tuple, len(out))
	for i, tu := range out {
		if len(tu) != k || cap(tu) != k {
			t.Fatalf("tuple %d: len %d cap %d, want both %d", i, len(tu), cap(tu), k)
		}
		before[i] = append(data.Tuple(nil), tu...)
	}
	grown := append(out[0], -1)
	grown[0] = -2
	for j := range out[1] {
		out[1][j] = -3
	}
	for i := 2; i < len(out); i++ {
		if !equalTupleLists(out[i:i+1], before[i:i+1]) {
			t.Fatalf("tuple %d changed to %v (was %v) by writes to other tuples", i, out[i], before[i])
		}
	}
	if !equalTupleLists(out[:1], before[:1]) {
		t.Fatalf("appending to tuple 0 wrote through it: %v, was %v", out[0], before[0])
	}
}

// heavyJoin2 is Join2 with every row of S1 and S2 on z=0: side×side
// answers from one heavy bucket, the join-product-skew shape.
func heavyJoin2(side int) map[string]*data.Relation {
	s1 := data.NewRelation("S1", 2, int64(side))
	s2 := data.NewRelation("S2", 2, int64(side))
	for i := 0; i < side; i++ {
		s1.Add(int64(i), 0)
		s2.Add(int64(i), 0)
	}
	return map[string]*data.Relation{"S1": s1, "S2": s2}
}

// TestJoinAllocsIndependentOfOutput: 160k answers cost a bounded number of
// allocations (index buckets, one header slice and one arena per step),
// not one per answer.
func TestJoinAllocsIndependentOfOutput(t *testing.T) {
	q := query.Join2()
	rels := heavyJoin2(400)
	if n := len(JoinLimit(q, rels, 0)); n != 160000 {
		t.Fatalf("answers = %d, want 160000", n)
	}
	allocs := testing.AllocsPerRun(3, func() { JoinLimit(q, rels, 0) })
	if allocs > 64 {
		t.Fatalf("JoinLimit allocated %.0f times for 160000 answers, want ≤ 64", allocs)
	}
}

func BenchmarkJoinHeavyProduct(b *testing.B) {
	q := query.Join2()
	rels := heavyJoin2(400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JoinLimit(q, rels, 0)
	}
}
