// Command benchdiff is the bench-regression gate of the CI pipeline: it
// parses two benchmark runs (either `go test -json` streams or plain
// `go test -bench` text) and fails when any pinned benchmark's ns/op
// regressed beyond the threshold ratio.
//
//	benchdiff -old ci/bench-baseline.json -new BENCH_merged.json \
//	          -pins ci/bench-pins.txt -threshold 1.25
//
// Per benchmark the best (minimum) ns/op of the run is compared — the
// minimum estimator discards scheduler noise the same way sim.MeasureCost
// does. A pinned benchmark missing from the new run fails the gate (a
// silently dropped benchmark is a regression too); one missing from the
// baseline is reported and skipped, so new benchmarks can land before
// the snapshot is refreshed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a Go benchmark result line: name, iteration count,
// ns/op. The -<procs> suffix is stripped during normalisation.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// testEvent is the subset of a `go test -json` event benchdiff reads.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchRun is one parsed benchmark run: each benchmark's best (minimum)
// ns/op plus the `cpu:` header line identifying the machine it ran on.
type benchRun struct {
	ns  map[string]float64
	cpu string
}

// parseBenchFile reads a benchmark run — `go test -json` stream or plain
// bench output — keyed by name with the GOMAXPROCS suffix stripped. In
// -json streams a single result line arrives split across several output
// events (the benchmark name flushes before the counters), so the
// per-package text stream is reassembled before line parsing.
func parseBenchFile(path string) (*benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &benchRun{ns: make(map[string]float64)}
	record := func(line string) {
		if cpu, ok := strings.CutPrefix(strings.TrimSpace(line), "cpu: "); ok && out.cpu == "" {
			out.cpu = cpu
			return
		}
		name, ns, ok := parseBenchLine(line)
		if !ok {
			return
		}
		if have, seen := out.ns[name]; !seen || ns < have {
			out.ns[name] = ns
		}
	}
	streams := make(map[string]*strings.Builder) // per-package reassembled text
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(strings.TrimSpace(line), "{") {
			record(line)
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("%s: bad -json line: %w", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		sb := streams[ev.Package]
		if sb == nil {
			sb = &strings.Builder{}
			streams[ev.Package] = sb
		}
		sb.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, sb := range streams {
		for _, line := range strings.Split(sb.String(), "\n") {
			record(line)
		}
	}
	return out, nil
}

// parseBenchLine extracts (normalised name, ns/op) from one bench result
// line, reporting false for non-bench lines.
func parseBenchLine(line string) (string, float64, bool) {
	mm := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if mm == nil {
		return "", 0, false
	}
	ns, err := strconv.ParseFloat(mm[3], 64)
	if err != nil {
		return "", 0, false
	}
	return normalizeName(mm[1]), ns, true
}

// normalizeName strips the trailing -<GOMAXPROCS> suffix Go appends to
// benchmark names, so runs from machines with different core counts
// compare.
func normalizeName(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// readPins loads the pinned benchmark names: one per line, '#' comments
// and blank lines ignored.
func readPins(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pins []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pins = append(pins, line)
	}
	return pins, sc.Err()
}

// verdict is one pinned benchmark's comparison outcome.
type verdict struct {
	name     string
	oldNs    float64
	newNs    float64
	ratio    float64
	status   string // "ok", "REGRESSED", "MISSING", "no-baseline"
	gateFail bool
}

// compare evaluates every pinned benchmark of newRun against oldRun at
// the given regression threshold (new/old ratio above it fails). With
// cpuMismatch set — the two runs come from different machines, so the
// absolute-ns/op ratio is shifted by the hardware delta — regressions
// are reported as advisory instead of failing the gate; a MISSING pin
// still fails, since benchmark existence is machine-independent. This is
// the bootstrap path: the first run on a new runner class warns, the
// operator refreshes the baseline from that run's artifact, and the gate
// enforces from then on.
func compare(pins []string, oldRun, newRun map[string]float64, threshold float64, cpuMismatch bool) []verdict {
	var out []verdict
	for _, name := range pins {
		v := verdict{name: name, status: "ok"}
		newNs, haveNew := newRun[name]
		oldNs, haveOld := oldRun[name]
		v.oldNs, v.newNs = oldNs, newNs
		switch {
		case !haveNew:
			v.status, v.gateFail = "MISSING", true
		case !haveOld:
			v.status = "no-baseline"
		default:
			v.ratio = newNs / oldNs
			if v.ratio > threshold {
				if cpuMismatch {
					v.status = "REGRESSED (advisory: cpu mismatch)"
				} else {
					v.status, v.gateFail = "REGRESSED", true
				}
			}
		}
		out = append(out, v)
	}
	return out
}

func main() {
	oldPath := flag.String("old", "", "baseline bench run (-json stream or plain bench output)")
	newPath := flag.String("new", "", "candidate bench run to gate")
	pinsPath := flag.String("pins", "", "file listing the pinned benchmarks to gate (one per line); default: every benchmark present in the baseline")
	threshold := flag.Float64("threshold", 1.25, "fail when new/old ns/op exceeds this ratio")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	oldRun, err := parseBenchFile(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRun, err := parseBenchFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	var pins []string
	if *pinsPath != "" {
		if pins, err = readPins(*pinsPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	} else {
		for name := range oldRun.ns {
			pins = append(pins, name)
		}
		sort.Strings(pins)
	}
	if len(pins) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no pinned benchmarks to gate")
		os.Exit(2)
	}
	cpuMismatch := oldRun.cpu != "" && newRun.cpu != "" && oldRun.cpu != newRun.cpu
	if cpuMismatch {
		fmt.Printf("WARNING: baseline cpu %q != candidate cpu %q — ns/op ratios are shifted by the hardware delta, regressions reported as advisory only; refresh the baseline from this machine class's artifact to arm the gate\n\n",
			oldRun.cpu, newRun.cpu)
	}

	verdicts := compare(pins, oldRun.ns, newRun.ns, *threshold, cpuMismatch)
	fail := false
	fmt.Printf("%-60s %14s %14s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "status")
	for _, v := range verdicts {
		ratio := "-"
		if v.ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", v.ratio)
		}
		fmt.Printf("%-60s %14.1f %14.1f %8s  %s\n", v.name, v.oldNs, v.newNs, ratio, v.status)
		fail = fail || v.gateFail
	}
	if fail {
		fmt.Printf("\nbenchdiff: FAIL (threshold %.2fx)\n", *threshold)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: ok (%d benchmarks gated, threshold %.2fx)\n", len(verdicts), *threshold)
}
