package mpc

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/data"
)

// fuzzDB builds a small random database from rng: 1–3 relations of arity
// 1–3 over a modest domain.
func fuzzDB(rng *rand.Rand) *data.Database {
	db := data.NewDatabase()
	names := []string{"A", "B", "C"}
	for _, name := range names[:1+rng.Intn(3)] {
		arity := 1 + rng.Intn(3)
		domain := int64(64 + rng.Intn(2048))
		r := data.NewRelation(name, arity, domain)
		m := rng.Intn(400)
		for i := 0; i < m; i++ {
			vals := make([]int64, arity)
			for a := range vals {
				vals[a] = rng.Int63n(domain)
			}
			r.Add(vals...)
		}
		db.Put(r)
	}
	return db
}

// fuzzRouter is a pure router with a mix of fan-out shapes: singles, small
// fan-outs with duplicates, and wide broadcasts (exercising the map-based
// dedup path). Destinations depend only on (relation name, row values,
// seed).
func fuzzRouter(p int, seed uint64) Router {
	return RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		h := seed
		for _, c := range rel.Name {
			h = h*1099511628211 + uint64(c)
		}
		for _, col := range rel.Columns() {
			h = h*1099511628211 + uint64(col[row])
		}
		pick := func(i int) int { return int((h ^ (h >> 7) ^ uint64(i)*2654435761) % uint64(p)) }
		switch h % 8 {
		case 0: // wide broadcast with duplicates, beyond the scan limit
			n := dedupScanLimit + 8 + int(h%17)
			for i := 0; i < n; i++ {
				dst = append(dst, pick(i%((n/2)+1)))
			}
		case 1, 2: // small fan-out with duplicates
			d := pick(0)
			dst = append(dst, d, pick(1), d)
		default:
			dst = append(dst, pick(0))
		}
		return dst
	})
}

// sortedFragment canonicalizes a fragment for multiset comparison.
func sortedFragment(f *data.Relation) *data.Relation {
	c := f.Clone()
	c.Sort()
	return c
}

// assertClustersEquivalent checks both clusters delivered identical loads
// and identical fragments as multisets on every server.
func assertClustersEquivalent(t *testing.T, want, got *Cluster) {
	t.Helper()
	if want.P != got.P {
		t.Fatalf("cluster sizes differ: %d vs %d", want.P, got.P)
	}
	for i := range want.Servers {
		ws, gs := want.Servers[i], got.Servers[i]
		if ws.BitsIn != gs.BitsIn || ws.TuplesIn != gs.TuplesIn {
			t.Fatalf("server %d loads differ: (%d bits, %d tuples) vs (%d bits, %d tuples)",
				i, ws.BitsIn, ws.TuplesIn, gs.BitsIn, gs.TuplesIn)
		}
		if len(ws.Received) != len(gs.Received) {
			t.Fatalf("server %d fragment sets differ: %d vs %d relations", i, len(ws.Received), len(gs.Received))
		}
		for name, wf := range ws.Received {
			gf := gs.Received[name]
			if gf == nil {
				t.Fatalf("server %d missing fragment %q", i, name)
			}
			if wf.Arity != gf.Arity || wf.Domain != gf.Domain || wf.Size() != gf.Size() {
				t.Fatalf("server %d fragment %q shapes differ", i, name)
			}
			a, b := sortedFragment(wf), sortedFragment(gf)
			for col := 0; col < a.Arity; col++ {
				ca, cb := a.Column(col), b.Column(col)
				for row := range ca {
					if ca[row] != cb[row] {
						t.Fatalf("server %d fragment %q differs as a multiset (col %d row %d: %d vs %d)",
							i, name, col, row, ca[row], cb[row])
					}
				}
			}
		}
	}
}

// referenceDeliver is the sequential reference delivery the sharded engine
// is checked against: every row of every relation is routed in order and
// appended once to each distinct destination, charging that server's load
// counters. It shares no delivery code with the engine.
func referenceDeliver(c *Cluster, router Router, rels ...*data.Relation) {
	r := forSender(router)
	var dst []int
	for _, rel := range rels {
		for row := 0; row < rel.Size(); row++ {
			dst = r.DestinationsAt(rel, row, dst[:0])
			seen := make(map[int]bool, len(dst))
			for _, d := range dst {
				if seen[d] {
					continue
				}
				seen[d] = true
				s := c.Servers[d]
				frag := s.Received[rel.Name]
				if frag == nil {
					frag = data.NewRelation(rel.Name, rel.Arity, rel.Domain)
					s.Received[rel.Name] = frag
				}
				frag.AppendRow(rel, row)
				s.BitsIn += rel.BitsPerTuple()
				s.TuplesIn++
			}
		}
	}
}

// referenceShuffle is the sequential reference for ShuffleResident: every
// server's resident fragments of names are detached, then re-delivered.
func referenceShuffle(c *Cluster, router Router, names ...string) {
	var rels []*data.Relation
	for _, s := range c.Servers {
		for _, name := range names {
			if frag, ok := s.Received[name]; ok {
				delete(s.Received, name)
				rels = append(rels, frag)
			}
		}
	}
	referenceDeliver(c, router, rels...)
}

// runEngines routes db (plus a resident shuffle) through the sharded engine
// and the sequential reference delivery and asserts equivalence.
func runEngines(t *testing.T, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	db := fuzzDB(rng)
	p := 1 + rng.Intn(40)
	router := fuzzRouter(p, seed)

	ref := NewCluster(p)
	for _, name := range db.Names() {
		referenceDeliver(ref, router, db.Relations[name])
	}
	sharded := NewCluster(p)
	sharded.Senders = 1 + rng.Intn(12)
	if err := sharded.Round(db, router); err != nil {
		t.Fatalf("sharded engine: %v", err)
	}
	assertClustersEquivalent(t, ref, sharded)

	// A resident shuffle through a second pure router must also agree
	// (exercises fragment chunking on whatever skew the first round made).
	router2 := fuzzRouter(p, seed^0x9e3779b97f4a7c15)
	names := db.Names()
	referenceShuffle(ref, router2, names...)
	if err := sharded.ShuffleResident(router2, names...); err != nil {
		t.Fatalf("sharded shuffle: %v", err)
	}
	assertClustersEquivalent(t, ref, sharded)
}

// TestEnginesEquivalent pins a spread of deterministic seeds; the fuzz
// target below explores further.
func TestEnginesEquivalent(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		runEngines(t, seed)
	}
}

// FuzzCommunicateEngines differentially fuzzes the sharded engine against
// the sequential reference delivery: identical per-server loads and
// identical delivered fragments as multisets on random databases and
// routers (delivery order within a fragment is explicitly unspecified).
func FuzzCommunicateEngines(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1 << 20, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runEngines(t, seed)
	})
}

func TestShardedOutOfRangeReportsError(t *testing.T) {
	db := singleRel(10)
	c := NewCluster(2)
	err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, 7)
	}))
	if err == nil {
		t.Fatal("expected error for bad destination")
	}
	if c.Loads().TotalTuples != 0 {
		t.Error("bad-destination tuple should be dropped")
	}
}

func TestResizeReusesServersAndMaps(t *testing.T) {
	c := NewCluster(8)
	db := singleRel(100)
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%8))
	})); err != nil {
		t.Fatal(err)
	}
	s0, s7 := c.Servers[0], c.Servers[7]

	c.Resize(4)
	if c.P != 4 || len(c.Servers) != 4 {
		t.Fatalf("Resize(4): P=%d, %d servers", c.P, len(c.Servers))
	}
	if c.Capacity() != 8 {
		t.Errorf("Capacity = %d, want 8", c.Capacity())
	}
	if c.Servers[0] != s0 {
		t.Error("Resize did not reuse server 0")
	}
	if len(s0.Received) != 0 || s0.BitsIn != 0 || s0.TuplesIn != 0 {
		t.Error("Resize did not reset the retained server")
	}
	if len(s7.Received) != 0 {
		t.Error("Resize left a fragment pinned on a parked server")
	}

	c.Resize(8)
	if c.Servers[0] != s0 || c.Servers[7] != s7 {
		t.Error("growing back did not reuse parked servers")
	}
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%8))
	})); err != nil {
		t.Fatal(err)
	}
	if got := c.Loads().TotalTuples; got != 100 {
		t.Errorf("TotalTuples after resize round = %d, want 100", got)
	}
	c.Reset()
	if len(s0.Received) != 0 {
		t.Error("Reset left entries behind")
	}
}

func TestResizePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCluster(2).Resize(0)
}

func TestAppendChunkedParts(t *testing.T) {
	rel := data.NewRelation("S", 1, 1024)
	for i := int64(0); i < 10; i++ {
		rel.Add(i)
	}
	parts := appendChunkedParts(nil, rel, 4)
	want := []sendPart{{rel, 0, 4}, {rel, 4, 8}, {rel, 8, 10}}
	if len(parts) != len(want) {
		t.Fatalf("parts = %d, want %d", len(parts), len(want))
	}
	for i, p := range parts {
		if p != want[i] {
			t.Errorf("part %d = [%d,%d), want [%d,%d)", i, p.lo, p.hi, want[i].lo, want[i].hi)
		}
	}
	if got := appendChunkedParts(nil, data.NewRelation("E", 1, 2), 4); len(got) != 0 {
		t.Errorf("empty relation produced %d parts", len(got))
	}
	// A non-positive chunk degrades to single-row parts, never loops.
	if got := appendChunkedParts(nil, rel, 0); len(got) != 10 {
		t.Errorf("chunk 0 produced %d parts, want 10", len(got))
	}
}

// TestShuffleResidentChunksHotFragment routes everything to one server,
// then shuffles it back out: the hot fragment is larger than the chunking
// threshold, and the redistribution must still be exact.
func TestShuffleResidentChunksHotFragment(t *testing.T) {
	m := 3*DefaultResidentChunkTuples + 17
	domain := int64(1)
	for domain < int64(m) {
		domain *= 2
	}
	db := data.NewDatabase()
	r := data.NewRelation("S", 1, domain)
	for i := int64(0); i < int64(m); i++ {
		r.Add(i)
	}
	db.Put(r)
	c := NewCluster(8)
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, 0) // one hot server holds the whole intermediate
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.ShuffleResident(RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%8))
	}), "S"); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for id, s := range c.Servers {
		f := s.Fragment("S")
		if f == nil {
			t.Fatalf("server %d empty after chunked shuffle", id)
		}
		for _, v := range f.Column(0) {
			if int(v%8) != id {
				t.Fatalf("server %d holds %d after mod-8 shuffle", id, v)
			}
			got = append(got, v)
		}
	}
	if len(got) != m {
		t.Fatalf("shuffled tuple count = %d, want %d", len(got), m)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("tuple %d lost or duplicated in chunked shuffle", i)
		}
	}
}

func TestDedupSetShrinksAfterWideBroadcast(t *testing.T) {
	var ds dedupSet
	wide := make([]int, 4*dedupShrinkFloor)
	for i := range wide {
		wide[i] = i
	}
	ds.dedup(wide)
	if ds.sized != len(wide) {
		t.Fatalf("sized = %d after wide dedup, want %d", ds.sized, len(wide))
	}
	// A narrow (but still map-path) fan-out must drop the huge map.
	narrow := make([]int, dedupScanLimit+4)
	for i := range narrow {
		narrow[i] = i % 8
	}
	out := ds.dedup(narrow)
	if len(out) != 8 {
		t.Fatalf("narrow dedup kept %d, want 8", len(out))
	}
	if ds.sized != len(narrow) {
		t.Errorf("sized = %d after shrink (map should be recreated at the narrow fan-out), want %d", ds.sized, len(narrow))
	}
	// Small fan-outs never touch the map at all.
	small := []int{3, 1, 3, 2, 1}
	got := ds.dedup(small)
	want := []int{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("scan dedup = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan dedup = %v, want %v (order must be first-occurrence)", got, want)
		}
	}
}

// TestShardedGoroutineBound asserts the sharded engine's goroutine count
// stays O(GOMAXPROCS) even with hundreds of virtual servers and parts.
func TestShardedGoroutineBound(t *testing.T) {
	db := singleRel(5000)
	c := NewCluster(512)
	c.Senders = 64
	base := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 3; r++ {
			if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
				return append(dst, int(rel.At(row, 0)%512), int((rel.At(row, 0)*7)%512))
			})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	peak := 0
	for {
		select {
		case <-done:
			limit := base + 2*runtime.GOMAXPROCS(0) + 4
			if peak > limit {
				t.Errorf("peak goroutines = %d, want <= %d (base %d)", peak, limit, base)
			}
			return
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			runtime.Gosched()
		}
	}
}

// TestComputeAppendReusesBuffer checks the exact-size preallocated
// concatenation and server order of the local-computation gather.
func TestComputeAppendReusesBuffer(t *testing.T) {
	c := NewCluster(6)
	f := func(s *Server) []data.Tuple {
		out := make([]data.Tuple, 0, s.ID)
		for i := 0; i < s.ID; i++ {
			out = append(out, data.Tuple{int64(s.ID), int64(i)})
		}
		return out
	}
	out1 := c.Compute(f)
	if len(out1) != 15 { // 0+1+...+5
		t.Fatalf("Compute returned %d tuples, want 15", len(out1))
	}
	if cap(out1) != 15 {
		t.Errorf("Compute allocated cap %d, want exactly 15 (preallocated)", cap(out1))
	}
	// Server order must be preserved.
	for i := 1; i < len(out1); i++ {
		if out1[i-1][0] > out1[i][0] {
			t.Fatalf("outputs out of server order at %d: %v then %v", i, out1[i-1], out1[i])
		}
	}
}
