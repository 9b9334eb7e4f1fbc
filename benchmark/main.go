// Command sessionbench is the repository benchmark. It drives the public
// repro API (Open, Session.Exec, Session.Standing, Database.Apply,
// StandingQuery.Advance) on four named workloads as a closed loop from one
// process, checks every answer against a single-process oracle, and
// reports the end-to-end metrics. With -trace 1 it reports a per-layer
// breakdown instead, timed around calls into each layer's exported
// functions from a replica of Session.Exec (see replica), next to an
// untraced loop so the tracing overhead shows.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload join2-zipf-hit --seed 1 --seconds 28 --trace 0
//	bash benchmark/run.sh -compare base.jsonl [change.jsonl]
//
// A run prints every metric by name and unit, then, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics (the end-to-end metrics, or with -trace 1 the
// per-layer ones). It appends its full record — metadata, every metric,
// sample counts — to -results, and a traced run writes its spans to
// -spans. A wrong answer makes the run exit 1; a run that cannot set up
// exits 2 without printing a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sessionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := runConfig{minOps: 200}
	var trace int
	var compare bool
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: %v", names))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generator and hash family derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 28, "how long the loop measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit recorded in the run metadata")
	fs.StringVar(&cfg.results, "results", filepath.Join(".bench_build", "results.jsonl"), "file the run's record is appended to (empty: none)")
	fs.StringVar(&cfg.spans, "spans", "", "file a traced run's spans are written to (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	fs.BoolVar(&compare, "compare", false, "summarize one results file, or compare two: -compare base.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if err := compareFiles(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "sessionbench:", err)
			return 2
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "sessionbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	rec, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 2
	}
	if cfg.results != "" {
		if err := appendRecord(cfg.results, rec); err != nil {
			fmt.Fprintln(stderr, "sessionbench:", err)
			return 2
		}
	}
	if err := rec.print(stdout); err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 2
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "sessionbench: FAILED:", p)
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// record is one run's full result, as appended to the results file.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Meta      meta                   `json:"meta"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64 // filled by the run, converted by finish
}

type meta struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seconds     float64 `json:"seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Instances   int     `json:"instances"`
	// SetupSeconds is each instance's set-up time; setup_s is their median.
	SetupSeconds []float64 `json:"setup_seconds"`
	// PlanStrategy is each instance's Result.Plan.Strategy at set-up. A
	// later change that alters it is flagged by -compare.
	PlanStrategy []string `json:"plan_strategy"`
	// Samples counts the measurements behind each figure: setup (instances
	// set up), op and write (loop operations behind the percentiles),
	// traced_op, traced_write, local_pass and spans on traced runs.
	Samples map[string]int `json:"samples"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord(cfg runConfig, r *runner) *record {
	rec := &record{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Meta: meta{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Commit:     cfg.commit,
			Seconds:    cfg.seconds,
			Instances:  len(r.insts),
			Samples:    map[string]int{},
		},
		values: map[string]float64{},
	}
	for _, inst := range r.insts {
		rec.Meta.PlanStrategy = append(rec.Meta.PlanStrategy, inst.strategy)
	}
	return rec
}

// finish converts the measured values into unit-tagged metrics.
func (rec *record) finish() {
	rec.Metrics = map[string]metricValue{}
	for name, v := range rec.values {
		d, ok := lookupMetric(name)
		if !ok {
			panic("sessionbench: unregistered metric " + name)
		}
		rec.Metrics[name] = metricValue{v, d.unit}
	}
}

// reported is the metric set of the last output line: the end-to-end
// metrics, or the per-layer ones on a traced run.
func (rec *record) reported() []metricDef {
	if rec.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes every measured metric by name and unit, then the result line.
func (rec *record) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  GOMAXPROCS %d  nproc %d  %s  commit %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Meta.GOMAXPROCS, rec.Meta.NProc, rec.Meta.GoVersion, rec.Meta.Commit)
	fmt.Fprintf(w, "plan strategy %v  samples %v\n", rec.Meta.PlanStrategy, rec.Meta.Samples)
	var names []string
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rec.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, mv.Value, mv.Unit)
	}
	if rec.Trace {
		fmt.Fprintf(w, "  untraced op p50/p95 %.3f/%.3f ms, traced %.3f/%.3f ms\n",
			rec.values["op_p50_ms"], rec.values["op_p95_ms"], rec.values["traced_op_p50_ms"], rec.values["traced_op_p95_ms"])
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metricValue{}}
	for _, d := range rec.reported() {
		out.Metrics[d.name] = rec.Metrics[d.name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
