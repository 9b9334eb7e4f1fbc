package repro

import (
	"testing"

	"repro/internal/data"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/workload"
)

// TestSpanRoutesMatchDestinationsAt checks the span-routing contract of the
// three span routers directly: for every heavy span a router compiles, each
// row's compiled destinations — the uniform Dests or the PerRow closure —
// equal its DestinationsAt destinations as deduplicated sets.
func TestSpanRoutesMatchDestinationsAt(t *testing.T) {
	const p, seed, m = 8, 7, 800
	db := data.NewDatabase()
	db.Put(workload.Zipf("S1", m, 1<<20, 1, 1.6, 64, 1))
	db.Put(workload.Zipf("S2", m, 1<<20, 1, 1.1, 64, 2))
	q := query.Join2()
	// Both atoms carry the join variable z in column 1. The partition
	// threshold sits below the routers' heavy-hitter cutoffs, so spans cover
	// values each router treats as light, one-side heavy and both-sides
	// heavy — uniform and per-row compiled routes alike.
	for _, name := range []string{"S1", "S2"} {
		if idx := db.MustGet(name).BuildPartitions(1, m/(4*p)); len(idx.Spans) == 0 {
			t.Fatalf("%s: zipf instance has no heavy spans", name)
		}
	}
	pipe := rounds.PlanPipeline(q, db, rounds.Config{P: p, Seed: seed, SkewAware: true}).Pipe

	cases := []struct {
		name   string
		router mpc.Router
	}{
		{"joinRouter", skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: seed}).Phys.Router},
		{"generalRouter", skew.PlanGeneral(q, db, skew.GeneralConfig{P: p, Seed: seed}).Phys.Router},
		{"stepRouter", pipe.Stages[0].Plan.Router},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sr, ok := mpc.SenderRouter(tc.router).(mpc.SpanRouter)
			if !ok {
				t.Fatalf("%T is not an mpc.SpanRouter", tc.router)
			}
			compiled := 0
			for _, name := range []string{"S1", "S2"} {
				rel := db.MustGet(name)
				idx := rel.Partitions()
				if !sr.SpansAttr(rel, idx.Attr) {
					t.Fatalf("%s: router declines spans on attribute %d", name, idx.Attr)
				}
				for _, sp := range idx.Spans {
					var route mpc.SpanRoute
					if !sr.CompileSpan(rel, idx.Attr, sp.Value, &route) {
						continue
					}
					compiled++
					for row := sp.Start; row < sp.End; row++ {
						got := route.Dests
						if route.PerRow != nil {
							got = route.PerRow(row, nil)
						}
						want := sr.DestinationsAt(rel, row, nil)
						if !sameServerSet(got, want) {
							t.Fatalf("%s row %d (span value %d): compiled %v, DestinationsAt %v",
								name, row, sp.Value, got, want)
						}
					}
				}
			}
			if compiled == 0 {
				t.Fatal("no heavy span compiled")
			}
		})
	}
}

// sameServerSet reports whether a and b name the same servers, ignoring
// order and duplicates.
func sameServerSet(a, b []int) bool {
	in := func(xs []int) map[int]bool {
		m := make(map[int]bool, len(xs))
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	sa, sb := in(a), in(b)
	if len(sa) != len(sb) {
		return false
	}
	for x := range sa {
		if !sb[x] {
			return false
		}
	}
	return true
}
