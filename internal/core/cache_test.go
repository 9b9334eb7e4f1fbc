package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

// wantHM asserts the hit and miss counters.
func wantHM(t *testing.T, e *Engine, label string, hits, misses uint64) {
	t.Helper()
	cs := e.CacheStats()
	if cs.Hits != hits || cs.Misses != misses {
		t.Errorf("%s: hits=%d misses=%d, want %d/%d", label, cs.Hits, cs.Misses, hits, misses)
	}
}

// TestPlanCacheHitSkipsReplanning is the cache-hit contract: repeated
// executions on unchanged (query, db, p) reuse the cached physical plan —
// the second call must register a hit, not a second miss — and return
// identical answers.
func TestPlanCacheHitSkipsReplanning(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Zipf("S1", 600, 100000, 1, 1.8, 100, 4),
		workload.Zipf("S2", 600, 100000, 1, 1.8, 100, 5),
	)
	e := newEngine(t, Config{P: 16, Seed: 9})
	first := mustExec(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after first execution", 0, 1)
	second := mustExec(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after second execution", 1, 1)
	if !join.EqualTupleSets(first.Output, second.Output) {
		t.Error("cached plan produced different answers")
	}
	if first.Plan.Strategy != second.Plan.Strategy {
		t.Error("cached plan changed strategy")
	}
}

// TestPlanCacheMissOnChange: changing the query, forcing a different
// strategy, or overriding p must all bypass the cached entry; a different
// database with the same content is a different key too (plans are keyed
// by database identity, not content).
func TestPlanCacheMissOnChange(t *testing.T) {
	q := query.Join2()
	mkdb := func() *data.Database {
		return db2(
			workload.Matching("S1", 2, 300, 100000, 1),
			workload.Matching("S2", 2, 300, 100000, 2),
		)
	}
	db := mkdb()
	e := newEngine(t, Config{P: 8, Seed: 1})
	mustExec(t, e, q, db, ExecOptions{})

	// Different query text (renamed head variables keep the same semantics
	// but a different canonical form — conservative misses are fine).
	mustExec(t, e, query.MustParse("q(a,b,c) = S1(a,c), S2(b,c)"), db, ExecOptions{})
	wantHM(t, e, "after query change", 0, 2)

	// A forced strategy is part of the key.
	force := BinCombination
	mustExec(t, e, q, db, ExecOptions{Strategy: &force})
	wantHM(t, e, "after forcing strategy", 0, 3)

	// So is the server count: another p must not reuse the old layout.
	mustExec(t, e, q, db, ExecOptions{P: 4})
	wantHM(t, e, "after overriding p", 0, 4)

	// An equal-content copy is another database.
	mustExec(t, e, q, mkdb(), ExecOptions{})
	wantHM(t, e, "after switching database", 0, 5)

	// And the original (query, db) entries are still live.
	mustExec(t, e, q, db, ExecOptions{})
	if cs := e.CacheStats(); cs.Hits != 1 {
		t.Errorf("original entry evicted: hits=%d, want 1", cs.Hits)
	}
}

func TestPlanCacheDisable(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 200, 100000, 1),
		workload.Matching("S2", 2, 200, 100000, 2),
	)
	e := newEngine(t, Config{P: 8, Seed: 1})
	mustExec(t, e, q, db, ExecOptions{NoCache: true})
	mustExec(t, e, q, db, ExecOptions{NoCache: true})
	wantHM(t, e, "disabled cache still counting", 0, 0)
	if cs := e.CacheStats(); cs.Size != 0 {
		t.Errorf("NoCache executions cached a plan: %+v", cs)
	}
}

func TestClearPlanCache(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 200, 100000, 1),
		workload.Matching("S2", 2, 200, 100000, 2),
	)
	e := newEngine(t, Config{P: 8, Seed: 1})
	mustExec(t, e, q, db, ExecOptions{})
	e.ClearPlanCache()
	cs := e.CacheStats()
	if cs.Hits != 0 || cs.Misses != 0 || cs.Evictions != 0 || cs.Size != 0 {
		t.Errorf("state survives clear: %+v", cs)
	}
	mustExec(t, e, q, db, ExecOptions{})
	wantHM(t, e, "cache not rebuilt after clear", 0, 1)
}

// TestPlanCacheLRUEviction: with capacity c, inserting c+1 distinct keys
// evicts exactly the least-recently-used entry — re-executing the evicted
// key misses while a recently touched key still hits.
func TestPlanCacheLRUEviction(t *testing.T) {
	q := query.Join2()
	mkdb := func(seed int64) *dbHandle {
		return &dbHandle{db2(
			workload.Matching("S1", 2, 100, 100000, seed),
			workload.Matching("S2", 2, 100, 100000, seed+50),
		)}
	}
	e := newEngine(t, Config{P: 8, Seed: 1, PlanCacheCapacity: 2})
	a, b, c := mkdb(1), mkdb(2), mkdb(3)
	run := func(h *dbHandle) { mustExec(t, e, q, h.db, ExecOptions{}) }

	run(a) // cache: [a]
	run(b) // cache: [b a]
	cs := e.CacheStats()
	if cs.Size != 2 || cs.Evictions != 0 {
		t.Fatalf("before eviction: %+v", cs)
	}
	run(a) // touch a → cache: [a b]
	run(c) // evicts b → cache: [c a]
	cs = e.CacheStats()
	if cs.Evictions != 1 || cs.Size != 2 {
		t.Fatalf("after third insert: %+v", cs)
	}
	run(a) // must still hit
	if got := e.CacheStats(); got.Hits != 2 {
		t.Errorf("touched entry was evicted: %+v", got)
	}
	run(b) // must miss (was the LRU victim) and evict again
	cs = e.CacheStats()
	if cs.Misses != 4 || cs.Evictions != 2 {
		t.Errorf("victim not evicted: %+v", cs)
	}
	if cs.Capacity != 2 {
		t.Errorf("Capacity = %d, want 2", cs.Capacity)
	}
}

// TestPlanCacheUnboundedNegativeCapacity: a negative capacity disables
// eviction entirely.
func TestPlanCacheUnboundedNegativeCapacity(t *testing.T) {
	q := query.Join2()
	e := newEngine(t, Config{P: 8, Seed: 1, PlanCacheCapacity: -1})
	if cs := e.CacheStats(); cs.Capacity != -1 {
		t.Fatalf("Capacity = %d, want -1 (unbounded)", cs.Capacity)
	}
	for seed := int64(0); seed < DefaultPlanCacheCapacity+5; seed++ {
		db := db2(
			workload.Matching("S1", 2, 50, 100000, seed),
			workload.Matching("S2", 2, 50, 100000, seed+100),
		)
		mustExec(t, e, q, db, ExecOptions{})
	}
	cs := e.CacheStats()
	if cs.Evictions != 0 || cs.Size != DefaultPlanCacheCapacity+5 {
		t.Errorf("unbounded cache evicted: %+v", cs)
	}
}

// dbHandle names a database in the eviction test so the LRU walkthrough
// reads as [a b c].
type dbHandle struct{ db *data.Database }

// TestExecuteConcurrentSharedEngine exercises the cache under concurrent
// executions on one engine (the production serving pattern): same answers
// from every goroutine and no data races (run under -race).
func TestExecuteConcurrentSharedEngine(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Zipf("S1", 400, 100000, 1, 1.8, 80, 4),
		workload.Zipf("S2", 400, 100000, 1, 1.8, 80, 5),
	)
	e := newEngine(t, Config{P: 16, Seed: 9})
	want := join.Join(q, join.FromDatabase(db))
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			res, err := e.ExecuteContext(context.Background(), q, db, ExecOptions{})
			if err != nil {
				errs <- err
				return
			}
			if !join.EqualTupleSets(res.Output, want) {
				errs <- fmt.Errorf("concurrent Execute: %d tuples, want %d", len(res.Output), len(want))
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if cs := e.CacheStats(); cs.Hits+cs.Misses != workers {
		t.Errorf("hits+misses = %d, want %d", cs.Hits+cs.Misses, workers)
	}
}
