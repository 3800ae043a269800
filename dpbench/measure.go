package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
)

// undecided marks a decision slot the switch did not write.
const undecided dataplane.Path = 0xff

// engine is what drive hands bursts and revalidator rounds to: the
// switch itself, or the traced replay of its walk on a twin.
type engine interface {
	burst(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision
	tick(now uint64)
	// parseErrors is the number of frames the engine could not parse.
	parseErrors() uint64
}

// direct drives the switch through its public entry points, untraced.
type direct struct {
	sw   *dataplane.Switch
	rev  *revalidator.Revalidator
	bad0 uint64
}

func newDirect(r *rig) *direct {
	return &direct{sw: r.sw, rev: r.rev, bad0: r.sw.Counters().ParseError}
}

func (d *direct) burst(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision {
	return d.sw.ProcessFrames(now, fb, out)
}

func (d *direct) tick(now uint64) { d.rev.Tick(now) }

func (d *direct) parseErrors() uint64 { return d.sw.Counters().ParseError - d.bad0 }

// limit says when a driven run stops: after seconds of wall time, at
// least minBursts bursts and at a cycle boundary; or, when bursts is
// positive, after exactly that many bursts (the traced replay).
type limit struct {
	seconds   float64
	minBursts int
	bursts    int
}

// runStats is what one driven run measured and checked.
type runStats struct {
	bursts, frames, rounds int
	copies                 int      // frames identical to the previous frame of their burst
	cpuNs                  int64    // thread CPU time of ProcessFrames calls plus rounds
	wallNs                 int64    // wall time of the same calls
	burstNs                []uint32 // thread CPU time of each ProcessFrames call
	peakMasks              int      // most megaflow masks resident after a burst
	digest                 uint64   // hash of every decision, in order
	fails                  failCount
}

// failCount splits the frames that failed the correctness check.
type failCount struct {
	mismatch  int // verdict differs from the reference
	undecided int // no decision written
	parse     int // frame could not be parsed
}

func (f failCount) total() int { return f.mismatch + f.undecided + f.parse }

// lane is one switch being driven: its rig, the engine that runs its
// bursts, its reference checker and what it measured.
type lane struct {
	r   *rig
	eng engine
	chk *checker
	st  runStats
}

// lockstepChunk is how long the first lane runs before the others take
// the same bursts: short against the seconds over which the machine's
// speed drifts, long against a burst, so that each lane mostly finds its
// own working set in the caches.
const lockstepChunk = 50 * time.Millisecond

// drive runs the closed loop: the next burst is generated (untimed) only
// after the previous one returned; each engine call is timed on its own,
// by wall time and by the thread's CPU time.
// Decisions are checked against the reference outside the timed region.
// Several lanes run in lockstep, chunk by chunk over the same bursts, so
// that they see the same machine conditions; the first lane's progress
// decides the stop.
func drive(lim limit, lanes ...*lane) {
	// The engine calls are timed by the CPU clock of the thread running
	// them: keep this goroutine on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, l := range lanes {
		l.reserve(lim)
	}
	lead := lanes[0]
	start := time.Now()
	done := func() bool {
		st := &lead.st
		if lim.bursts > 0 {
			return st.bursts == lim.bursts
		}
		return (lead.r.cycle == 0 || st.bursts%lead.r.cycle == 0) && st.bursts >= lim.minBursts &&
			time.Since(start).Seconds() >= lim.seconds
	}
	for !done() {
		n := 0
		for t0 := time.Now(); n == 0 || (!done() && time.Since(t0) < lockstepChunk); n++ {
			lead.step()
		}
		for _, l := range lanes[1:] {
			for i := 0; i < n; i++ {
				l.step()
			}
		}
	}
	for _, l := range lanes {
		l.st.fails.parse += int(l.eng.parseErrors())
	}
}

// reserve sizes the lane's sample buffer for a run of lim, with room for
// bursts as short as 4 µs, so that it does not grow (and allocate) inside
// the measured loop. drive calls it; callers that count allocations call
// it first.
func (l *lane) reserve(lim limit) {
	n := lim.bursts
	if n == 0 {
		n = int(lim.seconds*1e9/4000) + lim.minBursts
	}
	if cap(l.st.burstNs) < n {
		l.st.burstNs = make([]uint32, 0, n)
	}
}

// step sends the lane's next burst, then runs a revalidator round when
// the burst closes a cycle.
func (l *lane) step() {
	r, st := l.r, &l.st
	r.fb.Reset()
	r.src.fill(&r.fb)
	n := r.fb.Len()
	r.out = dataplane.GrowDecisions(r.out, n)
	for i := range r.out {
		r.out[i].Path = undecided
	}
	c0, t0 := threadCPU(), time.Now()
	r.out = l.eng.burst(r.now, &r.fb, r.out)
	st.wallNs += time.Since(t0).Nanoseconds()
	d := threadCPU() - c0
	st.burstNs = append(st.burstNs, uint32(min(d, 1<<32-1)))
	st.cpuNs += d
	st.bursts++
	st.frames += n
	l.chk.check(&r.fb, r.out, st)
	if mf := r.sw.Megaflow(); mf != nil {
		st.peakMasks = max(st.peakMasks, mf.NumMasks())
	}
	if r.cycle > 0 && st.bursts%r.cycle == 0 {
		r.now += idleJump
		c0, t0 := threadCPU(), time.Now()
		l.eng.tick(r.now)
		st.wallNs += time.Since(t0).Nanoseconds()
		st.cpuNs += threadCPU() - c0
		st.rounds++
		l.chk.sync(r.sw)
	}
}

// checker holds the reference verdicts: flowtable's linear lookup over
// the rules in force, evaluated once per distinct frame.
type checker struct {
	ref    flowtable.Table
	rules  []*flowtable.Rule
	expect map[*byte]expectation
}

type expectation struct {
	v  cache.Verdict
	ok bool // false: the frame does not parse
}

func newChecker(sw *dataplane.Switch, distinct int) *checker {
	c := &checker{expect: make(map[*byte]expectation, distinct)}
	c.sync(sw)
	return c
}

// sync re-reads the switch's rules, dropping cached expectations when
// the policy changed. drive calls it after every revalidator round,
// so frames are checked against the rules as of the last round.
func (c *checker) sync(sw *dataplane.Switch) {
	rules := sw.Rules()
	if slices.Equal(rules, c.rules) {
		return
	}
	c.rules = rules
	c.ref.Clear()
	for _, r := range rules {
		c.ref.Insert(*r)
	}
	clear(c.expect)
}

// expected returns the reference verdict of frame received on inPort.
func (c *checker) expected(frame []byte, inPort uint32) expectation {
	if e, ok := c.expect[&frame[0]]; ok {
		return e
	}
	var e expectation
	if k, err := pkt.Extract(frame, inPort); err == nil {
		e.ok = true
		if r := c.ref.Lookup(k); r != nil {
			e.v = r.Action
		}
	}
	c.expect[&frame[0]] = e
	return e
}

// check compares every decision of a burst with its reference verdict
// and folds it into the run's decision digest.
func (c *checker) check(fb *dataplane.FrameBatch, out []dataplane.Decision, st *runStats) {
	for i, frame := range fb.Frames {
		if i > 0 && &frame[0] == &fb.Frames[i-1][0] {
			st.copies++
		}
		d := out[i]
		switch e := c.expected(frame, fb.InPorts[i]); {
		case !e.ok:
			st.fails.parse++
		case d.Path == undecided:
			st.fails.undecided++
		case d.Verdict != e.v:
			st.fails.mismatch++
		}
		st.digest = (st.digest ^ uint64(d.Verdict.Verdict) ^ uint64(d.Path)<<8 ^ uint64(d.MasksScanned)<<16) * 0x100000001b3
	}
}

// threadCPU returns the CPU time the calling thread has run, in
// nanoseconds. Unlike wall time it does not grow while the hypervisor
// runs another guest on this virtual CPU: on a shared host such steal
// arrives as preemptions of tens of milliseconds, which would otherwise
// decide the burst latency tail.
func threadCPU() int64 {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID, which the syscall package does not name.
	const clockThreadCPUTime = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return ts.Nano()
}
