package mpc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/data"
)

func TestResidentLayoutInternsIndexes(t *testing.T) {
	l := &ResidentLayout{}
	a := l.AddIndex("S", []int{1, 0})
	b := l.AddIndex("S", []int{0, 1}) // same set, different order
	if a != b {
		t.Fatalf("AddIndex did not intern position sets: %d vs %d", a, b)
	}
	c := l.AddIndex("S", []int{0})
	d := l.AddIndex("T", []int{0})
	if c == a || d == c {
		t.Fatalf("distinct indexes share a kind: %d %d %d", a, c, d)
	}
	if got := l.KindsOf("S"); len(got) != 2 {
		t.Fatalf("KindsOf(S) = %v, want 2 kinds", got)
	}
	if got := l.KindsOf("absent"); got != nil {
		t.Fatalf("KindsOf(absent) = %v, want nil", got)
	}
	if got := l.Kinds[a].Pos; got[0] != 0 || got[1] != 1 {
		t.Fatalf("positions not canonicalized ascending: %v", got)
	}
}

func TestResidentInsertProbeDelete(t *testing.T) {
	l := &ResidentLayout{}
	byZ := l.AddIndex("S", []int{1})
	all := l.AddIndex("S", nil) // zero-key index: disconnected probes
	r := NewResident(l)

	r.Insert("S", data.Tuple{1, 7})
	r.Insert("S", data.Tuple{2, 7})
	r.Insert("S", data.Tuple{3, 8})
	if got := r.Tuples(); got != 3 {
		t.Fatalf("Tuples() = %d, want 3", got)
	}
	if got := r.Probe(byZ, data.Key1(7)); len(got) != 2 {
		t.Fatalf("Probe(z=7) = %v, want 2 matches", got)
	}
	if got := r.Probe(all, data.Key{}); len(got) != 3 {
		t.Fatalf("zero-key probe = %v, want all 3 tuples", got)
	}
	if got := r.Probe(byZ, data.Key1(9)); got != nil {
		t.Fatalf("Probe(z=9) = %v, want nil", got)
	}

	// Delete must remove the tuple from every index over the relation.
	if !r.Delete("S", data.Tuple{2, 7}) {
		t.Fatal("Delete of present tuple returned false")
	}
	if got := r.Probe(byZ, data.Key1(7)); len(got) != 1 || got[0][0] != 1 {
		t.Fatalf("after delete Probe(z=7) = %v, want [[1 7]]", got)
	}
	if got := r.Probe(all, data.Key{}); len(got) != 2 {
		t.Fatalf("after delete zero-key probe = %v, want 2 tuples", got)
	}
	if r.Delete("S", data.Tuple{2, 7}) {
		t.Fatal("Delete of absent tuple reported success")
	}
	// Relations outside the layout are a silent no-op (op streams carry
	// every relation of the database).
	if !r.Delete("unrelated", data.Tuple{1}) {
		t.Fatal("Delete on un-indexed relation must not report inconsistency")
	}

	// Inserted tuples are copies: mutating the caller's slice afterwards
	// must not corrupt resident state.
	mut := data.Tuple{5, 7}
	r.Insert("S", mut)
	mut[1] = 999
	if got := r.Probe(byZ, data.Key1(7)); len(got) != 2 {
		t.Fatalf("resident state aliased a mutated caller tuple: %v", got)
	}
}

func TestCountedTransitions(t *testing.T) {
	c := NewCounted()
	t1 := data.Tuple{1, 2}
	t2 := data.Tuple{3, 4}

	if app, van := c.Add(t1, 1); !app || van {
		t.Fatalf("first derivation: appeared=%v vanished=%v", app, van)
	}
	if app, van := c.Add(t1, 1); app || van {
		t.Fatalf("second derivation of live tuple: appeared=%v vanished=%v", app, van)
	}
	c.Add(t2, 3)
	if c.Len() != 2 || c.Count(data.KeyOf(t1)) != 2 || c.Count(data.KeyOf(t2)) != 3 {
		t.Fatalf("counts wrong: len=%d c1=%d c2=%d", c.Len(), c.Count(data.KeyOf(t1)), c.Count(data.KeyOf(t2)))
	}

	// Retiring one of several derivations keeps the tuple live.
	if app, van := c.Add(t1, -1); app || van {
		t.Fatalf("partial retraction transitioned: appeared=%v vanished=%v", app, van)
	}
	// Retiring the last derivation retracts it from the materialized view.
	if _, van := c.Add(t1, -1); !van {
		t.Fatal("last retraction did not vanish")
	}
	if c.Len() != 1 || c.Count(data.KeyOf(t1)) != 0 {
		t.Fatalf("after full retraction: len=%d count=%d", c.Len(), c.Count(data.KeyOf(t1)))
	}
	live := c.Tuples()
	if len(live) != 1 || !equalTuple(live[0], t2) {
		t.Fatalf("materialized view = %v, want [[3 4]]", live)
	}
	// Re-appearing after a full retraction is a fresh appearance.
	if app, _ := c.Add(t1, 1); !app {
		t.Fatal("re-insert after retraction did not appear")
	}
	var n int
	c.Each(func(tu data.Tuple, count int64) { n++ })
	if n != 2 {
		t.Fatalf("Each visited %d tuples, want 2", n)
	}
}

func TestCountedNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("retracting an underived tuple did not panic")
		}
	}()
	NewCounted().Add(data.Tuple{1}, -1)
}

// TestCountedRandomizedMirrorsMap drives random signed updates through
// Counted and a plain map oracle, checking the materialized view after
// every step (swap-remove bookkeeping is the risky part).
func TestCountedRandomizedMirrorsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := NewCounted()
	oracle := make(map[int64]int64)
	for step := 0; step < 5000; step++ {
		v := int64(rng.Intn(40))
		if oracle[v] > 0 && rng.Intn(2) == 0 {
			c.Add(data.Tuple{v}, -1)
			oracle[v]--
		} else {
			c.Add(data.Tuple{v}, 1)
			oracle[v]++
		}
	}
	var wantLive []int64
	for v, n := range oracle {
		if n > 0 {
			wantLive = append(wantLive, v)
		}
	}
	if c.Len() != len(wantLive) {
		t.Fatalf("live count %d, oracle %d", c.Len(), len(wantLive))
	}
	var gotLive []int64
	c.Each(func(tu data.Tuple, count int64) {
		gotLive = append(gotLive, tu[0])
		if count != oracle[tu[0]] {
			t.Fatalf("count of %d = %d, oracle %d", tu[0], count, oracle[tu[0]])
		}
	})
	sort.Slice(gotLive, func(i, j int) bool { return gotLive[i] < gotLive[j] })
	sort.Slice(wantLive, func(i, j int) bool { return wantLive[i] < wantLive[j] })
	for i := range wantLive {
		if gotLive[i] != wantLive[i] {
			t.Fatalf("live sets diverge at %d: %d vs %d", i, gotLive[i], wantLive[i])
		}
	}
}

// BenchmarkResidentChunk sweeps the resident-shuffle chunk size over a
// skewed intermediate (everything on one hot server), the workload the
// chunking exists for: small chunks buy parallel routing of a hot fragment
// at per-part overhead, huge chunks serialize the hot server's send. The
// tuned default (DefaultResidentChunkTuples = 1024) sits on the flat
// bottom of this curve.
func BenchmarkResidentChunk(b *testing.B) {
	const m = 200_000
	domain := int64(1)
	for domain < m {
		domain *= 2
	}
	db := data.NewDatabase()
	r := data.NewRelation("S", 1, domain)
	for i := int64(0); i < m; i++ {
		r.Add(i)
	}
	db.Put(r)
	hot := RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, 0)
	})
	spread := RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%16))
	})
	for _, chunk := range []int{128, 512, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			c := NewCluster(16)
			c.ResidentChunk = chunk
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.Reset()
				if err := c.Round(db, hot); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := c.ShuffleResident(spread, "S"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
