package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro"
	"repro/internal/data"
	"repro/internal/stats"
)

// ServeBench is the committed BENCH_serve.json baseline for the serving
// hit path: repro.Session.Exec latency on a plan-cache hit as the database
// grows with tuples the query never touches. Before incremental
// fingerprints, every execution — hit or miss — rescanned the whole database
// to key the cache (FingerprintRescanNs, which grows linearly) and routed
// every relation in it; after, the hit path reads maintained per-relation
// content sums and routes only the query's relations, so ExecHitNs stays
// flat in total database size. OldHitPathNs = ExecHitNs +
// FingerprintRescanNs reconstructs what the pre-incremental hit path paid.
type ServeBench struct {
	Instance string     `json:"instance"`
	GoArch   string     `json:"goarch"`
	NumCPU   int        `json:"num_cpu"`
	Rows     []ServeRow `json:"rows"`
}

// ServeRow is one database size point.
type ServeRow struct {
	// FillerTuples is the size of the unrelated relation sharing the
	// database; the queried relations stay fixed.
	FillerTuples int `json:"filler_tuples"`
	// ExecHitNs is a cache-hit Session.Exec (incremental fingerprints).
	ExecHitNs float64 `json:"exec_hit_ns"`
	// FingerprintNs is the maintained (incremental) database fingerprint.
	FingerprintNs float64 `json:"fingerprint_ns"`
	// FingerprintRescanNs is the full-scan fingerprint the old hit path
	// recomputed per execution.
	FingerprintRescanNs float64 `json:"fingerprint_rescan_ns"`
	// OldHitPathNs is ExecHitNs + FingerprintRescanNs: the pre-incremental
	// hit-path cost on this database.
	OldHitPathNs float64 `json:"old_hit_path_ns"`
	// ApplyDeltaNs is one two-op Database.Apply (insert + delete, net
	// zero) on the warm filler relation — the O(delta) mutation cost.
	ApplyDeltaNs float64 `json:"apply_delta_ns"`
}

// runServeBench measures the serving hit path across database sizes and
// writes the JSON baseline.
func runServeBench(path string) error {
	const (
		p     = 16
		qrels = 2000
	)
	fillers := []int{0, 50_000, 200_000, 800_000}
	out := ServeBench{
		Instance: fmt.Sprintf("join2 matchings m=%d p=%d seed=1; filler relation of growing size sharing the database", qrels, p),
		GoArch:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
	}
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")
	ctx := context.Background()

	for _, fill := range fillers {
		db := repro.NewDatabase()
		db.Put(repro.MatchingRelation("S1", 2, qrels, 1<<20, 1))
		db.Put(repro.MatchingRelation("S2", 2, qrels, 1<<20, 2))
		filler := data.NewRelation("F", 2, 1<<30)
		for i := 0; i < fill; i++ {
			filler.Add(int64(i), int64(i)+1)
		}
		db.Put(filler)

		s, err := repro.Open(repro.Config{P: p, Seed: 1})
		if err != nil {
			return err
		}
		// Warm: plan cached, clusters pooled, content sums maintained.
		for i := 0; i < 2; i++ {
			if _, err := s.Exec(ctx, q, db); err != nil {
				return err
			}
		}
		if fill > 0 {
			// First Apply builds the filler's maintained state once, off
			// the clock.
			if err := db.Apply(repro.NewDelta().Insert("F", 1<<29, 1).Delete("F", 1<<29, 1)); err != nil {
				return err
			}
		}

		hit := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(ctx, q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		fp := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats.Fingerprint(db)
			}
		})
		rescan := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats.FingerprintRescan(db)
			}
		})
		row := ServeRow{
			FillerTuples:        fill,
			ExecHitNs:           float64(hit.NsPerOp()),
			FingerprintNs:       float64(fp.NsPerOp()),
			FingerprintRescanNs: float64(rescan.NsPerOp()),
		}
		row.OldHitPathNs = row.ExecHitNs + row.FingerprintRescanNs
		if fill > 0 {
			apply := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := db.Apply(repro.NewDelta().Insert("F", 1<<29, 1).Delete("F", 1<<29, 1)); err != nil {
						b.Fatal(err)
					}
				}
			})
			row.ApplyDeltaNs = float64(apply.NsPerOp())
		}
		out.Rows = append(out.Rows, row)
	}

	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("serve baseline written to %s\n%s", path, blob)
	return nil
}
