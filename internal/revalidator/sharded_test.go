package revalidator

import (
	"fmt"
	"sync"
	"testing"

	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// TestAttachShardedTargets: AttachPool on a shared pool attaches the one
// sharded switch shard-by-shard (not once per PMD view), and a plain
// unsharded switch attaches zero shard targets.
func TestAttachShardedTargets(t *testing.T) {
	pool := dataplane.NewSharedPMDPool(4, "shp")
	rev := New(Config{})
	rev.AttachPool(pool)
	want := pool.PMD(0).ShardedMegaflow().NumShards()
	if rev.Targets() != want {
		t.Fatalf("shared pool attached %d targets, want one per shard (%d)", rev.Targets(), want)
	}
	if n := New(Config{}).AttachSharded(testSwitch("flat")); n != 0 {
		t.Fatalf("AttachSharded on an unsharded switch attached %d targets, want 0", n)
	}
}

// TestShardedSweepEvicts: per-shard sweeps retire idle flows from a
// sharded hierarchy exactly as a whole-switch sweep would — everything
// installed at t=0 is gone once the idle horizon passes.
func TestShardedSweepEvicts(t *testing.T) {
	sw := dataplane.New("shsw", dataplane.WithShards(4))
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 64)
	rev := New(Config{MaxIdle: 5})
	if n := rev.AttachSharded(sw); n != 4 {
		t.Fatalf("attached %d shard targets, want 4", n)
	}
	keys := make([]flow.Key, 64)
	for i := range keys {
		keys[i] = key(i)
	}
	sw.ProcessBatch(0, keys, nil)
	smf := sw.ShardedMegaflow()
	if smf.Len() != 64 {
		t.Fatalf("expected 64 megaflows installed, got %d", smf.Len())
	}
	for now := uint64(0); now <= 20; now++ {
		rev.Tick(now)
	}
	if n := smf.Len(); n != 0 {
		t.Fatalf("%d megaflows survived the idle horizon", n)
	}
	if n := smf.NumMasks(); n != 0 {
		t.Fatalf("%d masks survived after all flows expired", n)
	}
}

// TestShardedRevalidatorRace is the -race leg's centrepiece: four PMD
// views push traffic through the shared sharded switch while the
// revalidator's per-shard sweeps run concurrently on the main goroutine.
// No driver-side lock anywhere — the per-shard locks inside the cache are
// the whole synchronisation story.
func TestShardedRevalidatorRace(t *testing.T) {
	const pmds, rounds, flows = 4, 40, 64
	pool := dataplane.NewSharedPMDPool(pmds, "racer")
	exactRules(func(r flowtable.Rule) { pool.InstallRule(r) }, flows)
	rev := New(Config{MaxIdle: 3, Workers: 2})
	rev.AttachPool(pool)

	var wg sync.WaitGroup
	errs := make(chan error, pmds)
	for p := 0; p < pmds; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sw := pool.PMD(p)
			keys := make([]flow.Key, flows)
			var out []dataplane.Decision
			for r := 0; r < rounds; r++ {
				for i := range keys {
					keys[i] = key((p*17 + r + i) % flows)
				}
				out = sw.ProcessBatch(uint64(r), keys, out)
				for i, d := range out {
					if d.Verdict.Verdict != flowtable.Allow {
						errs <- fmt.Errorf("pmd%d round %d key %d: got %v, want Allow", p, r, i, d.Verdict.Verdict)
						return
					}
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	now := uint64(0)
loop:
	for {
		select {
		case <-done:
			break loop
		default:
			rev.Tick(now)
			now++
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Traffic has stopped: a few more swept horizons drain the caches.
	for end := now + 50; now <= end; now++ {
		rev.Tick(now)
	}
	if n := pool.PMD(0).ShardedMegaflow().Len(); n != 0 {
		t.Fatalf("%d megaflows survived post-traffic sweeps", n)
	}
}

// driveShardedConcurrently pushes 200 bursts of frames through a sharded
// switch while a second goroutine runs one revalidator round per burst:
// round t overlaps burst t, and burst t+1 starts only once round t is
// handed off. There is no driver-side lock: the per-shard locks are the
// only synchronisation between the sweeps and the traffic.
func driveShardedConcurrently(t *testing.T, sw *dataplane.Switch, rev *Revalidator, frames [][]byte) {
	t.Helper()
	if n := rev.AttachSharded(sw); n != 4 {
		t.Fatalf("attached %d shard targets, want 4", n)
	}
	ticks, ticked := make(chan uint64), make(chan struct{})
	go func() {
		defer close(ticked)
		for now := range ticks {
			rev.Tick(now)
		}
	}()
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for now := uint64(0); now < 200; now++ {
		ticks <- now
		fb.Reset()
		for i := range frames {
			fb.Append(frames[i], 1)
		}
		out = sw.ProcessFrames(now, &fb, out)
	}
	close(ticks)
	<-ticked
}

// TestShardedRevalidationConcurrentWithProcessFrames is the race check:
// the actor's workers sweep a sharded switch shard by shard while the
// datapath processes frame bursts. Run with -race.
func TestShardedRevalidationConcurrentWithProcessFrames(t *testing.T) {
	sw := dataplane.New("race", dataplane.WithoutEMC(), dataplane.WithShards(4))
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 32)
	// Four shard targets over two workers: every round fans out across
	// real worker goroutines.
	rev := New(Config{MaxIdle: 2, Workers: 2, DumpRate: 16})
	driveShardedConcurrently(t, sw, rev, makeFrames(t, 32))
	if got := sw.Counters().Packets; got != 200*32 {
		t.Fatalf("processed %d packets, want %d", got, 200*32)
	}
	if got := rev.Stats().Rounds; got != 200 {
		t.Fatalf("%d revalidator rounds ran, want one per burst (200)", got)
	}
}

// TestShardedPushLimitConcurrentWithProcessFrames: limit cuts are
// published to the shards mid-traffic. Run with -race: the publish takes
// each shard's lock, so it cannot tear against a ProcessFrames install
// reading the limit.
func TestShardedPushLimitConcurrentWithProcessFrames(t *testing.T) {
	sw := dataplane.New("pushrace", dataplane.WithoutEMC(), dataplane.WithShards(4))
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 32)
	// DumpRate 1 with the 32 flows resident overruns every round, so the
	// limit is cut (and pushed) while frames are in flight.
	rev := New(Config{MaxIdle: 2, Workers: 2, DumpRate: 1, FlowLimit: 64, MinFlowLimit: 8})
	driveShardedConcurrently(t, sw, rev, makeFrames(t, 32))
	smf := sw.ShardedMegaflow()
	if rv := rev.FlowLimit(); rv >= 64 {
		t.Fatalf("flow limit %d never cut below the 64 ceiling under overrunning dumps", rv)
	}
	if tier, rv := smf.FlowLimit(), rev.FlowLimit(); tier != rv {
		t.Fatalf("tier flow limit %d diverged from the revalidator's %d", tier, rv)
	}
	if got := smf.Len(); got > rev.FlowLimit() {
		t.Fatalf("%d megaflows resident over the %d limit", got, rev.FlowLimit())
	}
}
