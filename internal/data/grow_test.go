package data_test

import (
	"testing"

	"repro/internal/data"
	"repro/internal/stats"
)

func growFixture(t *testing.T) (*data.Database, *data.Relation) {
	t.Helper()
	db := data.NewDatabase()
	r := data.NewRelation("R", 2, 100)
	r.Add(1, 2)
	r.Add(3, 4)
	db.Put(r)
	return db, r
}

// backing records where each column's storage lives and how far it can
// grow in place.
func backing(r *data.Relation) (first []*int64, caps []int) {
	for a, col := range r.Columns() {
		first = append(first, &r.Column(a)[0])
		caps = append(caps, cap(col))
	}
	return first, caps
}

func assertSameBacking(t *testing.T, r *data.Relation, first []*int64, caps []int) {
	t.Helper()
	f, c := backing(r)
	for a := range f {
		if f[a] != first[a] || c[a] != caps[a] {
			t.Fatalf("column %d reallocated after Grow: cap %d → %d", a, caps[a], c[a])
		}
	}
}

// TestGrowReservesForAdd: after Grow(n), n Adds land in the reserved
// backing.
func TestGrowReservesForAdd(t *testing.T) {
	_, r := growFixture(t)
	const n = 1000
	r.Grow(n)
	first, caps := backing(r)
	for i := int64(0); i < n; i++ {
		r.Add(i%100, (i+1)%100)
	}
	assertSameBacking(t, r, first, caps)
	if r.Size() != n+2 || r.At(0, 0) != 1 || r.At(n+1, 1) != n%100 {
		t.Fatalf("rows after Grow+Add: size %d, first %d, last %d", r.Size(), r.At(0, 0), r.At(n+1, 1))
	}
}

// TestGrowReservesForAppendColumns: one bulk append of n rows fits the
// reservation.
func TestGrowReservesForAppendColumns(t *testing.T) {
	_, r := growFixture(t)
	const n = 1000
	src := [][]int64{make([]int64, n), make([]int64, n)}
	for i := range src[0] {
		src[0][i], src[1][i] = int64(i%100), int64((i+7)%100)
	}
	r.Grow(n)
	first, caps := backing(r)
	r.AppendColumns(src, n)
	assertSameBacking(t, r, first, caps)
	if r.Size() != n+2 || r.At(2, 1) != 7 {
		t.Fatalf("rows after Grow+AppendColumns: size %d, row 2 = %v", r.Size(), r.Tuple(2))
	}
}

// TestGrowNoOps: Grow(0), a negative Grow and Grow on a nullary relation
// change nothing.
func TestGrowNoOps(t *testing.T) {
	_, r := growFixture(t)
	first, caps := backing(r)
	r.Grow(0)
	r.Grow(-5)
	assertSameBacking(t, r, first, caps)
	nullary := data.NewRelation("N", 0, 1)
	nullary.Grow(10)
	if nullary.Size() != 0 || len(nullary.Columns()) != 0 {
		t.Fatalf("Grow on arity 0: size %d, %d columns", nullary.Size(), len(nullary.Columns()))
	}
}

// TestGrowLeavesStateUnchanged: reserving capacity is invisible to size,
// the database version, the fingerprint and the partition layout.
func TestGrowLeavesStateUnchanged(t *testing.T) {
	db, r := growFixture(t)
	r.BuildPartitions(0, 1)
	part := r.Partitions()
	size, version, fp := r.Size(), db.Version(), stats.Fingerprint(db)
	r.Grow(512)
	if r.Size() != size || db.Version() != version || stats.Fingerprint(db) != fp {
		t.Fatalf("Grow changed state: size %d→%d, version %d→%d, fingerprint %x→%x",
			size, r.Size(), version, db.Version(), fp, stats.Fingerprint(db))
	}
	if r.Partitions() != part {
		t.Fatal("Grow replaced the partition index")
	}
}

// TestGrowKeepsTracking: a relation whose serving state is maintained
// (armed by Apply) still folds rows appended into the reserved backing.
func TestGrowKeepsTracking(t *testing.T) {
	db, r := growFixture(t)
	if err := db.Apply(new(data.Delta).Insert("R", 5, 6)); err != nil {
		t.Fatal(err)
	}
	if r.AttrCounts(0) == nil {
		t.Fatal("Apply did not arm maintained statistics")
	}
	r.Grow(64)
	for i := int64(10); i < 20; i++ {
		r.Add(i, i)
	}
	if got := r.AttrCounts(0)[15]; got != 1 {
		t.Fatalf("AttrCounts(0)[15] = %d after Grow+Add, want 1", got)
	}
	if fp, rescan := stats.Fingerprint(db), stats.FingerprintRescan(db); fp != rescan {
		t.Fatalf("maintained fingerprint %x != rescan %x after Grow+Add", fp, rescan)
	}
}
