package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// RoutingBench is the committed BENCH_routing.json baseline: per-tuple
// routing costs and the end-to-end communication round on the canonical
// zipf join instance. CI's benchmark smoke step keeps the benchmarks
// compiling and running; this artifact records the numbers a change is
// judged against.
type RoutingBench struct {
	// Instance documents the workload the numbers were measured on.
	Instance string `json:"instance"`
	GoArch   string `json:"goarch"`
	NumCPU   int    `json:"num_cpu"`
	// Per-tuple routing, HC triangle router with shares (4,4,4).
	HCDestinationsAtNsPerOp float64 `json:"hc_destinations_at_ns_per_op"`
	// Per-tuple routing through the §4.1 skew-join router on the zipf
	// instance (mix of light and heavy values).
	SkewJoinDestinationsAtNsPerOp float64 `json:"skewjoin_destinations_at_ns_per_op"`
	// Full communication round (route + deliver, no local join) of the
	// zipf join on p=64.
	SkewJoinRoundNsPerOp float64 `json:"skewjoin_round_ns_per_op"`
	AllocsPerRouteOp     int64   `json:"allocs_per_route_op"`
}

// zipfJoinDB is the canonical skewed two-relation instance used by the
// routing baseline (matching BenchmarkSkewJoinEndToEnd).
func zipfJoinDB() *data.Database {
	db := data.NewDatabase()
	db.Put(workload.Zipf("S1", 5000, 1<<20, 1, 1.6, 500, 1))
	db.Put(workload.Zipf("S2", 5000, 1<<20, 1, 1.6, 500, 2))
	return db
}

// runRoutingBench measures the routing baseline and writes it as JSON.
func runRoutingBench(path string) error {
	db := zipfJoinDB()

	hcRouter := hypercube.NewRouter(query.Triangle(), []int{4, 4, 4}, hashing.NewFamily(2))
	rel := data.NewRelation("S1", 2, 1<<20)
	for i := int64(0); i < 1024; i++ {
		rel.Add((12345*i)%(1<<20), (67890*i)%(1<<20))
	}
	hcCol := testing.Benchmark(func(b *testing.B) {
		var dst []int
		for i := 0; i < b.N; i++ {
			dst = hcRouter.DestinationsAt(rel, i&1023, dst[:0])
		}
		_ = dst
	})

	plan := skew.PlanJoin(query.Join2(), db, skew.JoinConfig{P: 64, Seed: 3, SkipJoin: true})
	sjRouter := plan.Phys.Router
	s1 := db.MustGet("S1")
	m := s1.Size()
	sjCol := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var dst []int
		for i := 0; i < b.N; i++ {
			dst = sjRouter.DestinationsAt(s1, i%m, dst[:0])
		}
		_ = dst
	})

	round := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec.Run(plan.Phys, db, exec.Config{SkipCompute: true})
		}
	})

	out := RoutingBench{
		Instance: "join2 zipf: S1,S2 m=5000 domain=2^20 zipf(s=1.6) over 500 values, p=64, seed 1/2/3",
		GoArch:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),

		HCDestinationsAtNsPerOp:       float64(hcCol.NsPerOp()),
		SkewJoinDestinationsAtNsPerOp: float64(sjCol.NsPerOp()),
		SkewJoinRoundNsPerOp:          float64(round.NsPerOp()),
		AllocsPerRouteOp:              sjCol.AllocsPerOp(),
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("routing baseline written to %s\n%s", path, blob)
	return nil
}
