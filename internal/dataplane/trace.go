package dataplane

import (
	"fmt"
	"strings"

	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// TraceStep is one tier's decision in a frame trace.
type TraceStep struct {
	Index int          // tier position in walk order
	Tier  string       // tier name ("emc", "smc", "megaflow", ...)
	Cost  int          // scan cost this tier billed (Decision.MasksScanned share)
	Entry *cache.Entry // the matched entry; nil on a miss

	// Megaflow sweep detail, deltas of the cache's real pruning
	// counters around this very lookup — not a re-simulation. Sweep is
	// true for megaflow-backed tiers.
	Sweep    bool
	Resident int    // subtables resident at lookup time
	Scanned  uint64 // MasksScanned delta (billed scan positions)
	Visits   uint64 // SubtableVisits delta (physical stage/full probes)
	Prunes   uint64 // SubtablePrunes delta (prefilter rejections)
	Bails    uint64 // StageBails delta (stage-hash misses before full probe)
}

// TraceUpcall is the slow-path tail of a trace pass that missed every
// tier.
type TraceUpcall struct {
	Refused    bool            // dropped by the upcall admission guard
	Rule       *flowtable.Rule // winning policy rule; nil when none matched
	Megaflow   flow.Match      // synthesised megaflow match
	Installed  bool            // megaflow installed into the authoritative tier
	InstallErr error           // install failure, if any
}

// TracePass is one pipeline pass of a traced frame: the tier walk and,
// when every tier missed, the upcall.
type TracePass struct {
	// Key is the key the pass classified; the conntrack recirculation's
	// pass carries the tracker's state stamped into ct_state.
	Key     flow.Key
	Steps   []TraceStep
	Upcall  *TraceUpcall  // nil when a tier answered
	Verdict cache.Verdict // the pass's own verdict, before conntrack settles it
}

// TraceResult explains how one frame fared through the pipeline — the
// ofproto/trace analog. It is recorded from the switch's own processing
// of the frame (the walk, upcall and conntrack recirculation that
// Process runs, with their real promotions and counter updates), so the
// explanation is the code path itself, not a model of it.
type TraceResult struct {
	Now      uint64
	InPort   uint32
	FrameLen int
	ParseErr error
	// Passes are the pipeline passes the frame took: one, or two when the
	// first pass's verdict dispatched it through the connection tracker.
	Passes  []TracePass
	CTState conntrack.State // the tracker's classification (second pass only)
	Verdict cache.Verdict   // the final verdict
	Path    Path
	Scanned int // total masks scanned (Decision.MasksScanned)
}

// TraceFrame processes one frame exactly as Process does at logical time
// now — extract, tier walk, upcall and conntrack recirculation, with
// every promotion, install and counter update — and returns the
// explanation recorded along the way: every tier decision, the megaflow
// sweep's staged-pruning counter deltas, the upcall admission verdict
// and the slow-path outcome of each pass. Tracing is processing with the
// explanation kept.
func (s *Switch) TraceFrame(now uint64, frame []byte, inPort uint32) *TraceResult {
	res := &TraceResult{Now: now, InPort: inPort, FrameLen: len(frame), Passes: make([]TracePass, 1, 2)}
	tr := &tracer{res: res, sweeps: make([][4]uint64, len(s.tiers))}
	for i, t := range s.tiers {
		if mt, ok := t.(megaflowBacked); ok {
			tr.sweeps[i] = sweepCounters(mt.Megaflow())
		}
	}
	s.trace = tr
	d, err := s.Process(now, inPort, frame)
	s.trace = nil
	res.Verdict, res.Path, res.Scanned = d.Verdict, d.Path, d.MasksScanned
	if err != nil {
		res.ParseErr = err
		res.Passes = nil
		res.Path = PathSlow
		return res
	}
	res.Passes[0].Key = s.oneFrame.Key(0) // the key Process extracted
	return res
}

// tracer is the sink TraceFrame attaches to the switch for one frame:
// the scalar walk, the upcall and the conntrack recirculation report
// into it as they run, and only while it is attached.
type tracer struct {
	res *TraceResult
	// sweeps holds, per tier, its megaflow's sweep counters as of the
	// tier's previous lookup (or the trace's start). Only lookups move
	// them, so the difference at the next lookup is that lookup's own.
	sweeps [][4]uint64
}

// sweepCounters reads a megaflow's billed scans, subtable visits,
// prunes and stage-hash bails.
func sweepCounters(m *cache.Megaflow) [4]uint64 {
	return [4]uint64{m.MasksScanned, m.SubtableVisits, m.SubtablePrunes, m.StageBails}
}

// pass returns the pass the walk is in.
func (tr *tracer) pass() *TracePass { return &tr.res.Passes[len(tr.res.Passes)-1] }

// step records tier i's lookup outcome, with the megaflow sweep's
// counter deltas.
//
//lint:coldpath
func (tr *tracer) step(i int, t Tier, ent *cache.Entry, cost int, ok bool) {
	step := TraceStep{Index: i, Tier: t.Name(), Cost: cost}
	if mt, isMF := t.(megaflowBacked); isMF {
		m := mt.Megaflow()
		was, now := tr.sweeps[i], sweepCounters(m)
		tr.sweeps[i] = now
		step.Sweep, step.Resident = true, m.NumMasks()
		step.Scanned, step.Visits, step.Prunes, step.Bails = now[0]-was[0], now[1]-was[1], now[2]-was[2], now[3]-was[3]
	}
	p := tr.pass()
	if ok {
		step.Entry = ent
		p.Verdict = ent.Verdict
	}
	p.Steps = append(p.Steps, step)
}

// refused records an upcall the admission guard dropped.
//
//lint:coldpath
func (tr *tracer) refused() {
	p := tr.pass()
	p.Upcall = &TraceUpcall{Refused: true}
	p.Verdict = cache.Verdict{Verdict: flowtable.Deny}
}

// upcall records an admitted upcall: the classification res, the verdict
// v it yields, and whether its megaflow was installed (err: why not).
//
//lint:coldpath
func (tr *tracer) upcall(res classifier.Result, v cache.Verdict, installed bool, err error) {
	p := tr.pass()
	p.Upcall = &TraceUpcall{Rule: res.Rule, Megaflow: res.Megaflow, Installed: installed, InstallErr: err}
	p.Verdict = v
}

// recirc opens the conntrack recirculation's pass over k2, the key with
// the tracker's state stamped in.
//
//lint:coldpath
func (tr *tracer) recirc(state conntrack.State, k2 flow.Key) {
	tr.res.CTState = state
	tr.res.Passes = append(tr.res.Passes, TracePass{Key: k2})
}

// String renders the trace as the dpctl-facing explanation. The text
// is deterministic for a deterministic switch state and is pinned by
// golden tests — change it deliberately.
func (r *TraceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d-byte frame on port %d at t=%d\n", r.FrameLen, r.InPort, r.Now)
	if r.ParseErr != nil {
		fmt.Fprintf(&b, "  extract: error: %v\n", r.ParseErr)
		fmt.Fprintf(&b, "verdict: deny (malformed frame dropped before classification)\n")
		return b.String()
	}
	first := &r.Passes[0]
	first.write(&b)
	switch {
	case len(r.Passes) > 1:
		second := &r.Passes[1]
		fmt.Fprintf(&b, "  recirculate: conntrack state %s\n", r.CTState)
		second.write(&b)
		switch v := second.Verdict; {
		case v.Recirc:
			fmt.Fprintf(&b, "  conntrack: dispatched again -> deny (recirculation loop)\n")
		case v.Verdict == flowtable.Allow && v.Commit && r.Verdict.Verdict == flowtable.Allow:
			fmt.Fprintf(&b, "  conntrack: connection committed\n")
		case v.Verdict == flowtable.Allow && v.Commit:
			fmt.Fprintf(&b, "  conntrack: commit refused (table full) -> deny\n")
		}
	case first.Verdict.Recirc:
		fmt.Fprintf(&b, "  recirculate: no connection tracker -> deny\n")
	}
	fmt.Fprintf(&b, "verdict: %s via %s, masks scanned %d\n", r.Verdict, r.Path, r.Scanned)
	return b.String()
}

// write renders one pass: its flow, every tier step and the upcall.
func (p *TracePass) write(b *strings.Builder) {
	fmt.Fprintf(b, "  flow: %s\n", p.Key)
	for _, st := range p.Steps {
		outcome := "MISS"
		if st.Entry != nil {
			outcome = "HIT"
		}
		fmt.Fprintf(b, "  tier %d %s: %s (cost %d)\n", st.Index, st.Tier, outcome, st.Cost)
		if st.Sweep {
			fmt.Fprintf(b, "    subtables: %d resident, %d scanned, %d probed, %d pruned, %d stage-hash bails\n",
				st.Resident, st.Scanned, st.Visits, st.Prunes, st.Bails)
		}
		if st.Entry != nil {
			fmt.Fprintf(b, "    matched %s -> %s\n", st.Entry.Match, st.Entry.Verdict)
		}
	}
	up := p.Upcall
	if up == nil {
		return
	}
	if up.Refused {
		fmt.Fprintf(b, "  upcall: REFUSED by admission guard — dropped at the datapath, no classification\n")
		return
	}
	fmt.Fprintf(b, "  upcall: admitted to slow path\n")
	if up.Rule != nil {
		fmt.Fprintf(b, "    rule: %s", up.Rule)
		if up.Rule.Comment != "" {
			fmt.Fprintf(b, "  # %s", up.Rule.Comment)
		}
		b.WriteByte('\n')
	} else {
		fmt.Fprintf(b, "    rule: none matched -> default deny\n")
	}
	fmt.Fprintf(b, "    megaflow: %s\n", up.Megaflow)
	switch {
	case up.Installed:
		fmt.Fprintf(b, "    install: ok (promoted to upper tiers)\n")
	case up.InstallErr != nil:
		fmt.Fprintf(b, "    install: FAILED: %v\n", up.InstallErr)
	}
}
