package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareFiles summarizes one results file (median, quartiles and spread of
// every metric per workload, against the end-to-end bounds), or compares
// two: both medians with their quartiles, and the change of the second
// against the first. A workload whose plan strategies differ between the
// files is flagged, because its figures then measure different plans.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 1 && len(paths) != 2 {
		return fmt.Errorf("-compare takes one or two results files, got %d", len(paths))
	}
	var sets []*resultSet
	for _, p := range paths {
		s, err := loadResults(p)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	for _, wl := range sets[0].workloads() {
		fmt.Fprintf(w, "== %s\n", wl)
		if len(sets) == 2 {
			a, b := sets[0].strategies[wl], sets[1].strategies[wl]
			if strings.Join(a, ",") != strings.Join(b, ",") {
				fmt.Fprintf(w, "   PLAN CHANGED: %v -> %v; figures compare different plans\n", a, b)
			}
		} else {
			fmt.Fprintf(w, "   plan %v\n", sets[0].strategies[wl])
		}
		for _, name := range sets[0].metricNames(wl) {
			def, _ := lookupMetric(name)
			a := sets[0].values[wl][name]
			q1, q2, q3 := quartiles(a)
			if len(sets) == 1 {
				spread := ratio(q3-q1, q2)
				flag := ""
				if def.bound > 0 && name != "setup_s" && spread > def.bound {
					flag = "  SPREAD ABOVE BOUND"
				}
				fmt.Fprintf(w, "   %-28s %-6s n=%-3d median %-12.6g [%.6g, %.6g] spread %.4f bound %.2f%s\n",
					name, def.unit, len(a), q2, q1, q3, spread, def.bound, flag)
				continue
			}
			b := sets[1].values[wl][name]
			r1, r2, r3 := quartiles(b)
			delta := ratio(r2-q2, q2)
			verdict := ""
			if def.bound > 0 {
				worse := delta
				if def.better == "higher" {
					worse = -delta
				}
				switch {
				case worse > def.bound:
					verdict = "  WORSE THAN BOUND"
				case worse > 0:
					verdict = "  within bound"
				default:
					verdict = "  not worse"
				}
			}
			fmt.Fprintf(w, "   %-28s %-6s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g]  %+.2f%%%s\n",
				name, def.unit, q2, q1, q3, r2, r1, r3, 100*delta, verdict)
		}
	}
	return nil
}

// resultSet is a results file grouped by workload. An end-to-end metric's
// samples come from untraced runs and every other metric's from traced
// runs, the runs whose result line reports them.
type resultSet struct {
	values     map[string]map[string][]float64 // workload → metric → samples
	strategies map[string][]string             // workload → distinct set-up plan strategies
}

func loadResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &resultSet{values: map[string]map[string][]float64{}, strategies: map[string][]string{}}
	seen := map[string]map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		wl := rec.Workload
		if s.values[wl] == nil {
			s.values[wl] = map[string][]float64{}
			seen[wl] = map[string]bool{}
		}
		for name, mv := range rec.Metrics {
			if isEndToEnd(name) == !rec.Trace {
				s.values[wl][name] = append(s.values[wl][name], mv.Value)
			}
		}
		for _, st := range rec.Meta.PlanStrategy {
			if !seen[wl][st] {
				seen[wl][st] = true
				s.strategies[wl] = append(s.strategies[wl], st)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	for wl := range s.strategies {
		sort.Strings(s.strategies[wl])
	}
	return s, nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

func (s *resultSet) workloads() []string {
	var out []string
	for wl := range s.values {
		out = append(out, wl)
	}
	sort.Strings(out)
	return out
}

// metricNames lists a workload's metrics: end-to-end first, in their
// declared order, then the rest by name.
func (s *resultSet) metricNames(wl string) []string {
	var out, rest []string
	for _, d := range endToEnd {
		if _, ok := s.values[wl][d.name]; ok {
			out = append(out, d.name)
		}
	}
	for name := range s.values[wl] {
		if !isEndToEnd(name) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}
