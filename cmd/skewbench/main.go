// Command skewbench runs the full experiment suite of DESIGN.md — one
// experiment per table/example in "Skew in Parallel Query Processing"
// (Beame–Koutris–Suciu, PODS 2014) plus the ablations — and prints
// paper-versus-measured tables.
//
// Usage:
//
//	skewbench [-scale quick|full] [-exp E1,E5,A2] [-markdown out.md]
//	skewbench -routingbench BENCH_routing.json
//	skewbench -roundsbench BENCH_rounds.json
//	skewbench -commbench BENCH_comm.json
//	skewbench -servebench BENCH_serve.json
//	skewbench -incrbench BENCH_incr.json
//	skewbench -overloadbench BENCH_overload.json
//	skewbench -storagebench BENCH_storage.json
//	skewbench -faultbench BENCH_fault.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	mdFlag := flag.String("markdown", "", "also write results as markdown to this file")
	routingFlag := flag.String("routingbench", "", "measure the routing baseline on the zipf join instance, write JSON here, and exit")
	roundsFlag := flag.String("roundsbench", "", "measure the multi-round pipeline baseline (resident shuffle + end-to-end), write JSON here, and exit")
	commFlag := flag.String("commbench", "", "measure the sharded communication engine baseline, write JSON here, and exit")
	serveFlag := flag.String("servebench", "", "measure the Session serving hit path (latency vs database size, incremental vs rescan fingerprints), write JSON here, and exit")
	incrFlag := flag.String("incrbench", "", "measure standing-query advances (delta routing) vs full cache-hit Exec across delta and database sizes, write JSON here, and exit")
	overloadFlag := flag.String("overloadbench", "", "measure serving under write pressure (snapshot vs lock-coupled reads) and the 2x-capacity shed rate, write JSON here, and exit")
	storageFlag := flag.String("storagebench", "", "measure the skew-adaptive storage baseline (span-routed vs per-tuple round, parallel vs serial statistics), write JSON here, and exit")
	faultFlag := flag.String("faultbench", "", "measure round-replay vs whole-execution fault recovery on the triangle pipeline, write JSON here, and exit")
	flag.Parse()

	if *routingFlag != "" {
		if err := runRoutingBench(*routingFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: routing bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *roundsFlag != "" {
		if err := runRoundsBench(*roundsFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: rounds bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *commFlag != "" {
		if err := runCommBench(*commFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: comm bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serveFlag != "" {
		if err := runServeBench(*serveFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: serve bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *incrFlag != "" {
		if err := runIncrBench(*incrFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: incr bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *overloadFlag != "" {
		if err := runOverloadBench(*overloadFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: overload bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storageFlag != "" {
		if err := runStorageBench(*storageFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: storage bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *faultFlag != "" {
		if err := runFaultBench(*faultFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: fault bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scale := exp.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "skewbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	var md strings.Builder
	failures := 0
	for _, r := range exp.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		table := r.Run(scale)
		fmt.Print(exp.Render(table))
		fmt.Printf("    (%.1fs)\n\n", time.Since(start).Seconds())
		if !table.OK {
			failures++
		}
		if *mdFlag != "" {
			md.WriteString(exp.Markdown(table))
			md.WriteString("\n")
		}
	}
	if *mdFlag != "" {
		if err := os.WriteFile(*mdFlag, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: writing %s: %v\n", *mdFlag, err)
			os.Exit(1)
		}
		fmt.Printf("markdown written to %s\n", *mdFlag)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "skewbench: %d experiment(s) failed their checks\n", failures)
		os.Exit(1)
	}
}
