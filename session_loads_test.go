package repro

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/workload"
)

// TestExecReportsTotalBits: every strategy's Session Exec reports the bits
// received summed over all servers, equal to the per-server bits of the
// same plan run directly on the executor, and at least the max load.
func TestExecReportsTotalBits(t *testing.T) {
	const p, seed = 8, 3
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 300, 1<<16, 1, 1.6, 60, 1))
	db.Put(workload.Zipf("S2", 300, 1<<16, 1, 1.6, 60, 2))
	q := Join2Query()

	sumPerServer := func(phys *exec.PhysicalPlan) int64 {
		er, err := exec.Run(phys, db, exec.Config{SkipCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, bits := range er.PerServerBits {
			sum += bits
		}
		return sum
	}
	want := map[Strategy]int64{
		StrategyHyperCube:      sumPerServer(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: seed}).Phys),
		StrategySkewJoin:       sumPerServer(skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: seed}).Phys),
		StrategyBinCombination: sumPerServer(skew.PlanGeneral(q, db, skew.GeneralConfig{P: p, Seed: seed}).Phys),
	}
	pr, err := exec.RunPipeline(rounds.PlanPipeline(q, db, rounds.Config{P: p, Seed: seed, SkewAware: true}).Pipe, db, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rl := range pr.Rounds {
		want[StrategyMultiRound] += rl.TotalBits
	}

	s, err := Open(Config{P: p, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for st, total := range want {
		r, err := s.Exec(context.Background(), q, db, WithStrategy(st))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if r.TotalBits != total {
			t.Errorf("%v: TotalBits = %d, want the summed per-server bits %d", st, r.TotalBits, total)
		}
		if r.MaxLoadBits <= 0 || r.TotalBits < r.MaxLoadBits {
			t.Errorf("%v: TotalBits = %d, MaxLoadBits = %d, want TotalBits >= MaxLoadBits > 0", st, r.TotalBits, r.MaxLoadBits)
		}
	}
}
