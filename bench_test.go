package repro

import (
	"strconv"
	"testing"

	"repro/internal/bounds"
	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/hashing"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/lp"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/rational"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// One benchmark per experiment/ablation in DESIGN.md's index. Each runs
// the corresponding harness at Quick scale and reports whether the
// paper's predicted shape held (pass metric 1 = all internal checks
// passed). `go test -bench=.` therefore regenerates every table.

func benchExperiment(b *testing.B, run func(exp.Scale) exp.Table) {
	b.ReportAllocs()
	pass := 1.0
	for i := 0; i < b.N; i++ {
		t := run(exp.Quick)
		if !t.OK {
			pass = 0
		}
	}
	b.ReportMetric(pass, "pass")
}

func BenchmarkE1ExampleJoinShares(b *testing.B)    { benchExperiment(b, exp.E1ExampleJoinShares) }
func BenchmarkE2TrianglePackingTable(b *testing.B) { benchExperiment(b, exp.E2TrianglePackingTable) }
func BenchmarkE3MatchingBounds(b *testing.B)       { benchExperiment(b, exp.E3MatchingBounds) }
func BenchmarkE4HashingLemma(b *testing.B)         { benchExperiment(b, exp.E4HashingLemma) }
func BenchmarkE5SkewJoin(b *testing.B)             { benchExperiment(b, exp.E5SkewJoin) }
func BenchmarkE6ResidualBounds(b *testing.B)       { benchExperiment(b, exp.E6ResidualBounds) }
func BenchmarkE7BinCombGeneral(b *testing.B)       { benchExperiment(b, exp.E7BinCombGeneral) }
func BenchmarkE8ReplicationRate(b *testing.B)      { benchExperiment(b, exp.E8ReplicationRate) }
func BenchmarkE9SkewResilience(b *testing.B)       { benchExperiment(b, exp.E9SkewResilience) }
func BenchmarkE10CartesianProduct(b *testing.B)    { benchExperiment(b, exp.E10CartesianProduct) }
func BenchmarkE11KnowledgeBound(b *testing.B)      { benchExperiment(b, exp.E11KnowledgeBound) }
func BenchmarkE12RoundsTradeoff(b *testing.B)      { benchExperiment(b, exp.E12RoundsTradeoff) }
func BenchmarkA1ShareRounding(b *testing.B)        { benchExperiment(b, exp.A1ShareRounding) }
func BenchmarkA2ShareOptimizers(b *testing.B)      { benchExperiment(b, exp.A2ShareOptimizers) }
func BenchmarkA3Threshold(b *testing.B)            { benchExperiment(b, exp.A3Threshold) }
func BenchmarkA4OverweightFactor(b *testing.B)     { benchExperiment(b, exp.A4OverweightFactor) }
func BenchmarkA5SamplingStats(b *testing.B)        { benchExperiment(b, exp.A5SamplingStats) }
func BenchmarkA6LocalJoinAlgorithm(b *testing.B)   { benchExperiment(b, exp.A6LocalJoinAlgorithm) }

// Micro-benchmarks of the load-bearing primitives.

func BenchmarkShareLPTriangle(b *testing.B) {
	q := query.Triangle()
	bits := []float64{1 << 20, 1 << 18, 1 << 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hypercube.OptimalExponents(q, bits, 64)
	}
}

func BenchmarkPackingVertexEnumeration(b *testing.B) {
	for _, q := range []*query.Query{query.Triangle(), query.Path(3), query.Cycle(4), query.Star(3)} {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packing.PK(q)
			}
		})
	}
}

func BenchmarkSimplexBeale(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem(4)
		p.Objective = rational.Vector{
			rational.New(-3, 4), rational.FromInt(150), rational.New(-1, 50), rational.FromInt(6),
		}
		p.AddConstraint(rational.Vector{rational.New(1, 4), rational.FromInt(-60), rational.New(-1, 25), rational.FromInt(9)}, lp.LE, rational.Zero())
		p.AddConstraint(rational.Vector{rational.New(1, 2), rational.FromInt(-90), rational.New(-1, 50), rational.FromInt(3)}, lp.LE, rational.Zero())
		p.AddConstraint(rational.Vector{rational.Zero(), rational.Zero(), rational.One(), rational.Zero()}, lp.LE, rational.One())
		return p
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if build().Solve().Status != lp.Optimal {
			b.Fatal("not optimal")
		}
	}
}

func BenchmarkHashingThroughput(b *testing.B) {
	f := hashing.NewFamily(1)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		f.Hash(i&3, int64(i), 64)
	}
}

// BenchmarkRouterDestinationsAt measures the per-tuple cost of the HC
// routing hot path (mpc.Router): destinations are computed from the
// relation's column strides with no row view at all. It must report
// 0 allocs/op.
func BenchmarkRouterDestinationsAt(b *testing.B) {
	q := query.Triangle()
	fam := hashing.NewFamily(2)
	r := hypercube.NewRouter(q, []int{4, 4, 4}, fam)
	rel := NewRelation("S1", 2, 1<<20)
	for i := int64(0); i < 1024; i++ {
		rel.Add((12345*i)%(1<<20), (67890*i)%(1<<20))
	}
	var dst []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.DestinationsAt(rel, i&1023, dst[:0])
	}
	if len(dst) != 4 {
		b.Fatalf("destinations = %d", len(dst))
	}
}

// BenchmarkPlanCache measures Engine.Execute on a skewed two-relation
// join, with planning amortized by the plan cache (hit) versus replanned
// every call (miss).
func BenchmarkPlanCache(b *testing.B) {
	q := query.Join2()
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 2000, 1<<20, 1, 1.6, 300, 1))
	db.Put(workload.Zipf("S2", 2000, 1<<20, 1, 1.6, 300, 2))
	b.Run("hit", func(b *testing.B) {
		e := NewEngine(64, 3)
		e.Execute(q, db) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Execute(q, db)
		}
		if e.CacheStats().Hits == 0 {
			b.Fatal("no cache hits")
		}
	})
	b.Run("miss", func(b *testing.B) {
		e := NewEngine(64, 3)
		e.DisablePlanCache = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Execute(q, db)
		}
	})
}

func BenchmarkLocalJoinTriangle(b *testing.B) {
	q := query.Triangle()
	db := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 2000, Domain: 300},
		{Name: "S2", Arity: 2, M: 2000, Domain: 300},
		{Name: "S3", Arity: 2, M: 2000, Domain: 300},
	}, 5)
	rels := join.FromDatabase(db)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		join.Join(q, rels)
	}
}

func BenchmarkHyperCubeEndToEnd(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			q := query.Triangle()
			db := workload.ForQuery([]workload.AtomSpec{
				{Name: "S1", Arity: 2, M: 5000, Domain: 1 << 20},
				{Name: "S2", Arity: 2, M: 5000, Domain: 1 << 20},
				{Name: "S3", Arity: 2, M: 5000, Domain: 1 << 20},
			}, 7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := hypercube.Run(q, db, hypercube.Config{P: p, Seed: uint64(i), SkipJoin: true})
				b.ReportMetric(float64(res.Loads.MaxBits), "maxload-bits")
			}
		})
	}
}

func BenchmarkSkewJoinEndToEnd(b *testing.B) {
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 5000, 1<<20, 1, 1.6, 500, 1))
	db.Put(workload.Zipf("S2", 5000, 1<<20, 1, 1.6, 500, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := skew.RunJoin(db, skew.JoinConfig{P: 64, Seed: uint64(i), SkipJoin: true})
		b.ReportMetric(float64(res.MaxVirtualBits), "maxload-bits")
	}
}

func BenchmarkResidualLowerBound(b *testing.B) {
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 3000, 1<<20, 1, 1.6, 300, 1))
	db.Put(workload.Zipf("S2", 3000, 1<<20, 1, 1.6, 300, 2))
	q := query.Join2()
	x := query.NewVarSet(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bounds.ResidualLower(q, x, db, 64)
	}
}

func BenchmarkWCOJvsBinaryJoinHard(b *testing.B) {
	// The classic AGM-hard triangle instance: every relation is a double
	// star {0}×[n] ∪ [n]×{0}, so EVERY pairwise join is quadratic (no join
	// order escapes), while the triangle output is only Θ(n). The generic
	// worst-case-optimal join runs near the output size.
	const n = 400
	mk := func(name string) *data.Relation {
		r := NewRelation(name, 2, 1<<20)
		for i := int64(1); i <= n; i++ {
			r.Add(0, i)
			r.Add(i, 0)
		}
		r.Add(0, 0)
		return r
	}
	rels := map[string]*data.Relation{"S1": mk("S1"), "S2": mk("S2"), "S3": mk("S3")}
	q := query.Triangle()
	b.Run("wcoj", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wcoj.Join(q, rels)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.Join(q, rels)
		}
	})
}

func BenchmarkCodecEncodeDecode(b *testing.B) {
	rel := workload.Uniform("S", 2, 10000, 1<<20, 1)
	b.SetBytes(rel.Bits() / 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire := codec.Encode(rel)
		if _, err := codec.Decode("S", wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralSkewSweepP(b *testing.B) {
	for _, p := range []int{16, 64} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			q := query.Join2()
			db := NewDatabase()
			db.Put(workload.Zipf("S1", 3000, 1<<20, 1, 1.7, 400, 1))
			db.Put(workload.Zipf("S2", 3000, 1<<20, 1, 1.7, 400, 2))
			for i := 0; i < b.N; i++ {
				res := skew.RunGeneral(q, db, skew.GeneralConfig{P: p, Seed: uint64(i), SkipJoin: true})
				b.ReportMetric(float64(res.NumBinCombos), "combos")
			}
		})
	}
}

// BenchmarkMultiRoundEndToEnd measures the pipelined multi-round path
// (plan lowering + exec.RunPipeline with resident intermediates) on the
// two canonical instances of BENCH_rounds.json. The pre-refactor loop
// (fresh cluster per round, intermediates re-ingested through a
// data.Database) measured 5.49 ms/op on triangle-matchings and 4543 ms/op
// on the skew-aware zipf join on the recording machine; the pipelined path
// must stay at or below those.
func BenchmarkMultiRoundEndToEnd(b *testing.B) {
	b.Run("triangle-matchings", func(b *testing.B) {
		q := query.Triangle()
		db := NewDatabase()
		for j, name := range []string{"S1", "S2", "S3"} {
			db.Put(workload.Matching(name, 2, 5000, 1<<20, int64(j+1)))
		}
		plan := rounds.BuildPlan(q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := rounds.Run(plan, db, rounds.Config{P: 64, Seed: uint64(i)})
			b.ReportMetric(float64(res.SumMaxBits), "sum-max-bits")
		}
	})
	b.Run("zipf-join2-skew-aware", func(b *testing.B) {
		q := query.Join2()
		db := NewDatabase()
		db.Put(workload.Zipf("S1", 5000, 1<<20, 1, 1.6, 500, 1))
		db.Put(workload.Zipf("S2", 5000, 1<<20, 1, 1.6, 500, 2))
		plan := rounds.BuildPlan(q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := rounds.Run(plan, db, rounds.Config{P: 64, Seed: uint64(i), SkewAware: true})
			b.ReportMetric(float64(res.SumMaxBits), "sum-max-bits")
		}
	})
	// Cached multi-round plans through the engine: lowering amortized away.
	b.Run("engine-cached", func(b *testing.B) {
		q := query.Triangle()
		db := NewDatabase()
		for j, name := range []string{"S1", "S2", "S3"} {
			db.Put(workload.Matching(name, 2, 5000, 1<<20, int64(j+1)))
		}
		force := StrategyMultiRound
		e := NewEngine(64, 3)
		e.ForceStrategy = &force
		e.Execute(q, db) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Execute(q, db)
		}
	})
}
