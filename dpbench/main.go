// Command dpbench is the datapath benchmark: it drives frames into
// verdicts on one core through the switch's public entry points,
// dataplane.Switch.ProcessFrames and revalidator.Revalidator.Tick, on
// three workloads (warm-mix, attack8192, inject), and checks every
// verdict against the flowtable linear reference.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash dpbench/run.sh --workload attack8192 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics of an untraced run. pps and the burst latencies
// are taken on the CPU time of the thread driving the switch (the analog
// of OVS's PMD cycles), so that hypervisor steal on a shared host does
// not enter them; the run itself lasts --seconds of wall time.
//
// With --trace 1 the untraced run is followed by a traced one: two more
// copies of the workload driven in lockstep over the same bursts, one
// untraced and one through the traced replay, and the JSON carries the
// per-layer ledger instead. The ledger is on wall time, as its spans
// are. The property report, the ledger table and the span dump path go
// to standard error.
//
// --selfcheck runs the sensitivity self-check: attack8192 at --seed for
// --seconds, with megaflow lookups stretched by twice the pps bound that
// BENCHMARK.json gives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	out      string
}

func main() {
	cfg := config{setups: 3}
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: warm-mix, attack8192 or inject")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "wall time of the measured loop")
	flag.IntVar(&trace, "trace", 0, "1: add the traced replay and print the per-layer ledger")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the sensitivity self-check on attack8192")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if selfcheck {
		if err := runSelfCheck(cfg, fullSize); err != nil {
			fatalf("selfcheck: %v", err)
		}
		return
	}
	res, err := run(cfg, fullSize)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res.output(cfg.trace))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON object the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) output(trace bool) output {
	o := output{
		Correct:   r.fails == 0,
		Attempted: r.frames,
		Failed:    r.fails,
		Metrics:   map[string]metric{},
	}
	ms := r.e2e
	if trace {
		ms = r.layers
	}
	for _, m := range ms {
		o.Metrics[m.name] = metric{m.value, m.unit}
	}
	return o
}
