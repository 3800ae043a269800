package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"policyinject/internal/dataplane"
	"policyinject/internal/revalidator"
)

// keepBursts is how many roots of the traced replay the span dump keeps.
const keepBursts = 512

type named struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome: its metrics and its correctness tally.
type result struct {
	frames int
	fails  int
	e2e    []named
	layers []named
}

// snapshot is the program's own counters at one instant.
type snapshot struct {
	ctr   dataplane.Counters
	tiers []dataplane.TierStats
	mf    mfCounters
	rev   revalidator.Stats
}

// mfCounters are the megaflow cache's physical probe counters.
type mfCounters struct{ scanned, runBilled, visits uint64 }

func snap(r *rig) snapshot {
	s := snapshot{ctr: r.sw.Counters()}
	for _, t := range r.sw.Tiers() {
		s.tiers = append(s.tiers, t.Stats())
	}
	if mf := r.sw.Megaflow(); mf != nil {
		s.mf = mfCounters{mf.MasksScanned, mf.RunBilledScans, mf.SubtableVisits}
	}
	if r.rev != nil {
		s.rev = r.rev.Stats()
	}
	return s
}

// run builds the workload cfg.setups times (setup_s is the median) and
// measures the untraced closed loop on the last build. With cfg.trace it
// then builds the workload twice more and drives both copies in lockstep
// over the same bursts: one untraced, one through the traced replay.
func run(cfg config, p params) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	var r *rig
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		if r, err = w.build(cfg.seed, p); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	l := &lane{r: r, eng: newDirect(r), chk: newChecker(r.sw, p.mixFlows)}
	lim := limit{seconds: cfg.seconds, minBursts: p.minBursts}
	l.reserve(lim)
	before := snap(r)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	drive(lim, l)
	runtime.ReadMemStats(&ms1)
	st := l.st
	u := newUsage(st, before, snap(r))
	u.allocsPerPkt = u.perFrame(float64(ms1.Mallocs - ms0.Mallocs))
	u.bytesPerPkt = u.perFrame(float64(ms1.TotalAlloc - ms0.TotalAlloc))

	res := &result{frames: st.frames, fails: st.fails.total()}
	lat := sortedUs(st.burstNs)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	// Live heap with only the switch and its traffic left: the samples
	// go first.
	st.burstNs, l.st.burstNs = nil, nil
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	runtime.KeepAlive(r)
	res.e2e = []named{
		{"pps", float64(st.frames) / (float64(st.cpuNs) / 1e9), "packets/s"},
		{"burst_p50_us", p50, "us"},
		{"burst_p99_us", p99, "us"},
		{"heap_mb", float64(ms2.HeapAlloc) / (1 << 20), "MiB"},
		{"setup_s", median(setups), "s"},
	}
	u.report(os.Stderr, w.name, cfg.seed)
	if !cfg.trace {
		return res, nil
	}
	r, l = nil, nil

	// The traced run: a fresh copy driven untraced and a twin driven by
	// the traced replay, burst by burst over the same input, sharing the
	// measured wall time.
	tp, err := newTracedPair(w, cfg.seed, p)
	if err != nil {
		return nil, err
	}
	drive(lim, tp.plain, tp.traced)
	ua, err := tp.usage()
	if err != nil {
		return nil, err
	}
	ua.allocsPerPkt, ua.bytesPerPkt = u.allocsPerPkt, u.bytesPerPkt
	res.frames += ua.frames
	res.fails += ua.fails.total()
	tr := tp.tr
	res.layers = ledger(ua, tp.rp, tr, tp.traced.st)
	printLedger(os.Stderr, ua, tr, tp.traced.st)
	if cfg.out != "" {
		dir := filepath.Join(cfg.out, "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.dump(path); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spans: %d roots written to %s\n", min(int(tr.roots), keepBursts), path)
	}
	return res, nil
}

// tracedPair is a workload built twice: plain drives one copy untraced,
// traced drives the twin through the traced replay. Driven in lockstep,
// the two see the same bursts and the same machine conditions.
type tracedPair struct {
	plain, traced *lane
	rp            *replay
	tr            *tracer
	before        snapshot
}

func newTracedPair(w *workload, seed uint64, p params) (*tracedPair, error) {
	a, err := w.build(seed, p)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	twin, err := w.build(seed, p)
	if err != nil {
		return nil, fmt.Errorf("%s twin set-up: %w", w.name, err)
	}
	tr := newTracer(keepBursts)
	rp, err := newReplay(twin, tr)
	if err != nil {
		return nil, err
	}
	return &tracedPair{
		plain:  &lane{r: a, eng: newDirect(a), chk: newChecker(a.sw, p.mixFlows)},
		traced: &lane{r: twin, eng: rp, chk: newChecker(twin.sw, p.mixFlows)},
		rp:     rp,
		tr:     tr,
		before: snap(a),
	}, nil
}

// usage returns what the plain copy did, once the replay is proved
// faithful to it.
func (tp *tracedPair) usage() (usage, error) {
	u := newUsage(tp.plain.st, tp.before, snap(tp.plain.r))
	if err := faithful(tp.rp, tp.plain.st, tp.traced.st, u, tp.traced.r); err != nil {
		return u, fmt.Errorf("trace rejected: %w", err)
	}
	return u, nil
}

// faithful checks that the traced replay did exactly what the untraced
// run did: same decisions and failures, same per-tier hits, upcalls and
// installs, same tier state and revalidator work at the end.
func faithful(rp *replay, st, tst runStats, u usage, twin *rig) error {
	if rp.err != nil {
		return rp.err
	}
	var diffs []string
	diff := func(what string, want, got any) {
		if want != got {
			diffs = append(diffs, fmt.Sprintf("%s: untraced %v, traced %v", what, want, got))
		}
	}
	diff("frames", st.frames, tst.frames)
	diff("run copies", st.copies, tst.copies)
	diff("decision digest", st.digest, tst.digest)
	diff("failures", st.fails, tst.fails)
	for i, th := range u.after.ctr.TierHits {
		diff(th.Tier+" hits", th.Hits-u.before.ctr.TierHits[i].Hits, rp.tierHits[i])
	}
	upcalls := u.after.ctr.Upcalls - u.before.ctr.Upcalls
	diff("upcalls", upcalls, rp.upcalls)
	diff("installs", upcalls-(u.after.ctr.InstallErr-u.before.ctr.InstallErr), rp.installs)
	tw := snap(twin)
	for i := range tw.tiers {
		diff(tw.tiers[i].Name+" stats", u.after.tiers[i], tw.tiers[i])
	}
	diff("megaflow counters", u.after.mf, tw.mf)
	diff("peak masks", st.peakMasks, tst.peakMasks)
	diff("revalidator rounds", u.after.rev.Rounds, tw.rev.Rounds)
	diff("revalidator idle evictions", u.after.rev.TotalIdleEvicted, tw.rev.TotalIdleEvicted)
	diff("revalidator limit evictions", u.after.rev.TotalLimitEvicted, tw.rev.TotalLimitEvicted)
	diff("revalidator flows", u.after.rev.TotalFlows, tw.rev.TotalFlows)
	if len(diffs) > 0 {
		return fmt.Errorf("%s", strings.Join(diffs, "; "))
	}
	return nil
}

// sortedUs returns the samples in microseconds, ascending.
func sortedUs(ns []uint32) []float64 {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	return us
}

// quantile interpolates linearly between the order statistics of
// sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
