package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// CommBench is the committed BENCH_comm.json baseline for the
// communication phase: the sharded delivery engine measured on a
// small-Virtual instance (HyperCube triangle, Virtual = p) and a
// large-Virtual one (§4.1 skew join with many heavy hitters, Virtual ≫ p).
// CI's comm bench smoke step keeps the harness running; this artifact
// records the numbers a change is judged against. TestShardedGoroutineBound
// gates the O(GOMAXPROCS) goroutine bound the peak count reports.
type CommBench struct {
	Instance   string `json:"instance"`
	GoArch     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Small CommScenario `json:"small_virtual"`
	Large CommScenario `json:"large_virtual"`
}

// CommScenario measures the engine on one routing instance.
type CommScenario struct {
	// Virtual is the cluster size the round runs on; RoutedTuples is the
	// delivered tuple count of one Round (the ns/tuple denominator).
	Virtual      int   `json:"virtual_servers"`
	RoutedTuples int64 `json:"routed_tuples"`

	Sharded CommEngineStats `json:"sharded"`
}

// CommEngineStats are the engine's measured costs for a full Round
// (route + deliver, no local computation) on a reused cluster.
type CommEngineStats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerTuple  float64 `json:"ns_per_tuple"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// PeakExtraGoroutines is the peak goroutine count observed during a
	// Round minus the pre-round baseline: O(GOMAXPROCS).
	PeakExtraGoroutines int `json:"peak_extra_goroutines"`
}

// peakExtraGoroutines runs fn in a goroutine and samples the process
// goroutine count until it returns, reporting the peak above the baseline
// taken before the call.
func peakExtraGoroutines(fn func()) int {
	base := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	peak := 0
	for {
		select {
		case <-done:
			return peak
		default:
			if n := runtime.NumGoroutine() - base; n > peak {
				peak = n
			}
			runtime.Gosched()
		}
	}
}

// measureCommEngine times Round on a reused cluster (Reset between
// iterations — the pooled steady state).
func measureCommEngine(virtual int, db *data.Database, router mpc.Router, tuples int64) CommEngineStats {
	c := mpc.NewCluster(virtual)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Reset()
			if err := c.Round(db, router); err != nil {
				b.Fatal(err)
			}
		}
	})
	peak := peakExtraGoroutines(func() {
		c.Reset()
		if err := c.Round(db, router); err != nil {
			panic(err)
		}
	})
	ns := float64(r.NsPerOp())
	return CommEngineStats{
		NsPerOp:             ns,
		NsPerTuple:          ns / float64(tuples),
		AllocsPerOp:         r.AllocsPerOp(),
		PeakExtraGoroutines: peak,
	}
}

// measureCommScenario runs the engine on one instance.
func measureCommScenario(virtual int, db *data.Database, router mpc.Router) CommScenario {
	probe := mpc.NewCluster(virtual)
	if err := probe.Round(db, router); err != nil {
		panic(err)
	}
	tuples := probe.Loads().TotalTuples
	return CommScenario{
		Virtual:      virtual,
		RoutedTuples: tuples,
		Sharded:      measureCommEngine(virtual, db, router, tuples),
	}
}

// runCommBench measures the communication-engine baseline and writes it as
// JSON.
func runCommBench(path string) error {
	// Small Virtual: the HyperCube triangle round, Virtual = p = 64.
	tri := triangleMatchingsDB()
	hcPlan := hypercube.BuildPlan(query.Triangle(), tri, hypercube.Config{P: 64, Seed: 3})
	small := measureCommScenario(hcPlan.Phys.Virtual, tri, hcPlan.Phys.Router)

	// Large Virtual: the §4.1 skew join on the zipf instance at p=256 —
	// hundreds of heavy hitters allocate Θ(p) virtual servers each.
	zdb := data.NewDatabase()
	zdb.Put(workload.Zipf("S1", 5000, 1<<20, 1, 1.6, 500, 1))
	zdb.Put(workload.Zipf("S2", 5000, 1<<20, 1, 1.6, 500, 2))
	sjPlan := skew.PlanJoin(query.Join2(), zdb, skew.JoinConfig{P: 256, Seed: 3, SkipJoin: true})
	large := measureCommScenario(sjPlan.Phys.Virtual, zdb, sjPlan.Phys.Router)

	out := CommBench{
		Instance: "small: triangle matchings m=5000 p=64 (HC shares); " +
			"large: join2 zipf m=5000 zipf(1.6) over 500 values p=256 (§4.1 router)",
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Small:      small,
		Large:      large,
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("communication baseline written to %s\n%s", path, blob)
	return nil
}
