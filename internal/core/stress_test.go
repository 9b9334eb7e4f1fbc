package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

func tuplesEqual(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestConcurrentExecuteSharedEngine hammers one engine from many
// goroutines with cache-hitting repeat queries — the repeated-traffic
// serving case. Every Execute shares the engine's pooled clusters and
// scratch buffers, so under -race this doubles as the data-race gate for
// cluster pooling, output detaching, and the sharded delivery engine; the
// answer comparison catches pooled buffers leaking into escaped results.
func TestConcurrentExecuteSharedEngine(t *testing.T) {
	zdb := data.NewDatabase()
	zdb.Put(workload.Zipf("S1", 600, 1<<20, 1, 1.6, 80, 1))
	zdb.Put(workload.Zipf("S2", 600, 1<<20, 1, 1.6, 80, 2))
	join2 := query.Join2()

	tdb := data.NewDatabase()
	for j, name := range []string{"S1", "S2", "S3"} {
		tdb.Put(workload.Matching(name, 2, 800, 1<<16, int64(j+1)))
	}
	triangle := query.Triangle()

	// References come from a fresh engine bypassing the cache; e is primed
	// so every concurrent execution below hits its cached plans.
	oracle := newEngine(t, Config{P: 16, Seed: 3})
	refJoin := mustExec(t, oracle, join2, zdb, ExecOptions{NoCache: true})
	sortTuples(refJoin.Output)
	refTri := mustExec(t, oracle, triangle, tdb, ExecOptions{NoCache: true})
	sortTuples(refTri.Output)
	e := newEngine(t, Config{P: 16, Seed: 3})
	mustExec(t, e, join2, zdb, ExecOptions{})
	mustExec(t, e, triangle, tdb, ExecOptions{})
	if len(refJoin.Output) == 0 {
		t.Fatal("reference join produced no answers; the stress test would be vacuous")
	}

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Alternate plan shapes so concurrent Executes mix cluster
				// sizes in the shared pool, not just trade one cluster.
				if (g+i)%2 == 0 {
					res, err := e.ExecuteContext(context.Background(), join2, zdb, ExecOptions{})
					if err != nil {
						errs <- err.Error()
						return
					}
					sortTuples(res.Output)
					if !tuplesEqual(res.Output, refJoin.Output) {
						errs <- "join2 answers diverged under concurrency"
						return
					}
					if res.MaxLoadBits != refJoin.MaxLoadBits {
						errs <- "join2 loads diverged under concurrency"
						return
					}
				} else {
					res, err := e.ExecuteContext(context.Background(), triangle, tdb, ExecOptions{})
					if err != nil {
						errs <- err.Error()
						return
					}
					sortTuples(res.Output)
					if !tuplesEqual(res.Output, refTri.Output) {
						errs <- "triangle answers diverged under concurrency"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if stats := e.CacheStats(); stats.Hits < goroutines*iters {
		t.Errorf("cache hits = %d, want >= %d (stress must exercise the cached-plan path)",
			stats.Hits, goroutines*iters)
	}
}

// TestConcurrentExecuteRawMaster runs concurrent executions straight on a
// mutable master database — no caller-taken snapshot — over a skewed join,
// between Apply deltas that outgrow the heavy-partition layout. Each
// round's executions therefore race the auto-partition rebuild on the
// master; every one must read an immutable epoch and return the oracle's
// answers. Run under -race.
func TestConcurrentExecuteRawMaster(t *testing.T) {
	db := data.NewDatabase()
	db.Put(workload.Zipf("S1", 600, 1<<20, 1, 1.6, 80, 1))
	db.Put(workload.Zipf("S2", 600, 1<<20, 1, 1.6, 80, 2))
	q := query.Join2()
	e := newEngine(t, Config{P: 8, Seed: 3})
	const rounds, goroutines = 4, 4
	next := int64(1 << 19) // past the zipf column's 80 distinct values
	for r := 0; r < rounds; r++ {
		if r > 0 {
			// Grow both relations by half with fresh, non-joining keys: the
			// unpartitioned tail passes the layout's rebuild rule.
			d := new(data.Delta)
			for j := 0; j < db.MustGet("S1").Size()/2; j++ {
				next++
				d.Insert("S1", next, next).Insert("S2", next, next+1)
			}
			if err := db.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		want := join.Join(q, join.FromDatabase(db.Snapshot()))
		before := e.CacheStats().Repartitions
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := e.ExecuteContext(context.Background(), q, db, ExecOptions{})
				switch {
				case err != nil:
					errs <- err.Error()
				case res.Plan.Strategy != SkewJoin:
					errs <- "plan " + res.Plan.Strategy.String() + ", want skew-join"
				case !join.EqualTupleSets(res.Output, want):
					errs <- "answers diverged from the oracle"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Errorf("round %d: %s", r, msg)
		}
		if e.CacheStats().Repartitions == before {
			t.Fatalf("round %d: no partition rebuild fired; the race was not exercised", r)
		}
	}
}
