package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code's workload
// and metric tables in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// resultLine runs rec.print and decodes its last line.
func resultLine(t *testing.T, rec *record) (line struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}) {
	t.Helper()
	var out bytes.Buffer
	if err := rec.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return line
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) *record {
	t.Helper()
	rec, err := run(context.Background(), runConfig{
		workload: workload, seed: 5, seconds: 0.3, trace: trace, minOps: 3,
		tiny: true, corrupt: corrupt, spans: filepath.Join(t.TempDir(), "spans.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSmoke runs every workload at a tiny size with a fixed seed, untraced
// and traced: each run must be correct and its result line must carry
// exactly the metrics BENCHMARK.json names for it, with their units.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec := tinyRun(t, w.name, trace, false)
			line := resultLine(t, rec)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, trace, line.Correct, line.Attempted, line.Failed, rec.Problems)
			}
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.name, trace, name, got.Unit, unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
			if trace && line.Metrics["trace.coverage"].Value <= 0 {
				t.Errorf("%s: trace.coverage = %v", w.name, line.Metrics["trace.coverage"].Value)
			}
		}
	}
}

// TestCorruptedAnswerTripsGate alters one answer per run and expects the
// correctness gate to fail the run.
func TestCorruptedAnswerTripsGate(t *testing.T) {
	for _, w := range workloads {
		rec := tinyRun(t, w.name, false, true)
		if rec.Correct || rec.Failed == 0 {
			t.Errorf("%s: corrupted answer passed the gate (attempted %d, failed %d)", w.name, rec.Attempted, rec.Failed)
		}
		if line := resultLine(t, rec); line.Correct {
			t.Errorf("%s: result line reports correct", w.name)
		}
	}
}

// TestCompare summarizes and compares result files written by real runs.
func TestCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	for _, trace := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			rec, err := run(context.Background(), runConfig{workload: "join2-zipf-hit", seed: seed, seconds: 0.2, trace: trace, minOps: 3, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, args := range [][]string{{path}, {path, path}} {
		var out bytes.Buffer
		if err := compareFiles(&out, args); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"== join2-zipf-hit", "op_p50_ms", "mpc.round_ms"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("compare %v: output lacks %q:\n%s", args, want, out.String())
			}
		}
		if strings.Contains(out.String(), "PLAN CHANGED") {
			t.Errorf("compare %v: same file flagged as a plan change", args)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}
