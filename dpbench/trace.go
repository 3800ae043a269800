package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// layer names a traced call site. Spans are recorded from the
// benchmark's own files, around the calls into each layer.
type layer uint8

const (
	lBurst    layer = iota // one replayed ProcessFrames call
	lExtract               // pkt.ExtractBatch
	lHash                  // flow.HashKeys
	lEMC                   // EMC tier LookupBatch / Lookup
	lSMC                   // SMC tier LookupBatch / Lookup
	lSweep                 // megaflow tier LookupBatch / Lookup in the walk
	lPromote               // Install / InstallHashed into upper tiers
	lReprobe               // megaflow Lookup after a same-burst install
	lClassify              // Classifier.Lookup
	lInstall               // InsertMegaflow
	lAccount               // AccountRun for coalesced run copies
	lRound                 // revalidator.Tick
	nLayers
)

var layerNames = [nLayers]string{
	"dataplane.burst", "pkt.extract", "flow.hash",
	"cache.emc.lookup", "cache.smc.lookup", "cache.megaflow.sweep",
	"cache.promote", "cache.megaflow.reprobe", "classifier.lookup",
	"cache.megaflow.install", "cache.account_run", "revalidator.round",
}

// span is one traced call: its layer, its interval in nanoseconds since
// the tracer's epoch, the span that caused it (-1 for a root) and the
// burst it belongs to. Rounds are roots of their own, numbered with the
// burst count at the time.
type span struct {
	layer      layer
	parent     int32
	burst      int32
	start, end int64
}

// tracer keeps the spans of the root in progress, folds each finished
// root into per-layer self times, and keeps the first keep roots' spans
// for the dump.
type tracer struct {
	epoch time.Time
	calib int64 // clock cost inside an empty span, taken off every span
	cur   []span
	open  int32
	child []int64

	roots  int32
	bursts int32
	selfNs [nLayers]int64
	calls  [nLayers]int64
	keep   int
	kept   []span
}

func newTracer(keep int) *tracer {
	t := &tracer{epoch: time.Now(), open: -1, keep: keep}
	t.calib = t.calibrate()
	return t
}

func (t *tracer) clock() int64 { return int64(time.Since(t.epoch)) }

// calibrate measures the median duration of an empty span.
func (t *tracer) calibrate() int64 {
	d := make([]int64, 2001)
	for i := range d {
		s := t.clock()
		d[i] = t.clock() - s
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func (t *tracer) begin(l layer) int32 {
	t.cur = append(t.cur, span{layer: l, parent: t.open, burst: t.bursts, start: t.clock()})
	t.open = int32(len(t.cur) - 1)
	return t.open
}

func (t *tracer) end(i int32) {
	t.cur[i].end = t.clock()
	t.open = t.cur[i].parent
	if t.open < 0 {
		t.finish()
	}
}

// finish folds the completed root and its descendants into the
// per-layer totals. A span's self time is its duration, less the clock
// cost, less the time its children cover.
func (t *tracer) finish() {
	if cap(t.child) < len(t.cur) {
		t.child = make([]int64, len(t.cur))
	}
	child := t.child[:len(t.cur)]
	clear(child)
	for i := len(t.cur) - 1; i >= 0; i-- {
		s := &t.cur[i]
		d := s.end - s.start
		t.selfNs[s.layer] += d - t.calib - child[i]
		t.calls[s.layer]++
		if s.parent >= 0 {
			child[s.parent] += d
		}
	}
	if int(t.roots) < t.keep {
		t.kept = append(t.kept, t.cur...)
	}
	if t.cur[0].layer == lBurst {
		t.bursts++
	}
	t.roots++
	t.cur = t.cur[:0]
}

// dump writes the kept spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	root := 0
	for i, s := range t.kept {
		if s.parent < 0 {
			root = i
		}
		parent := -1
		if s.parent >= 0 {
			parent = root + int(s.parent)
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"burst":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, parent, s.burst, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
