package dataplane

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"policyinject/internal/cache"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// admitAllGuard is a trivial UpcallGuard for option-validation tests.
type admitAllGuard struct{}

func (admitAllGuard) AdmitUpcall(uint64, uint32) bool { return true }

// TestShardedMatchesUnshardedDifferential drives the identical frame
// corpus through an unsharded switch and sharded switches carrying the
// same rules, across the EMC/SMC/staged hierarchies. WithShards(4) must
// produce the same per-frame verdicts and the same headline counters:
// its paths and mask scans are outside the contract, because a wildcard
// megaflow is duplicated into every shard its traffic touches — counters
// modulo shard attribution. WithShards(1) attributes nothing differently,
// so it must match exactly: every decision, Counters() (tier hits
// included) and every tier's Stats().
func TestShardedMatchesUnshardedDifferential(t *testing.T) {
	hierarchies := []struct {
		name string
		opts []Option
	}{
		{"emc+tss", nil},
		{"tss-only", []Option{WithoutEMC()}},
		// InsertProb 1 keeps EMC insertion deterministic across the two
		// switches (the default 1/100 policy draws in a different order
		// per hierarchy shape, which is outside the contract).
		{"emc+smc+tss", []Option{
			WithEMC(cache.EMCConfig{InsertProb: 1}),
			WithSMC(cache.SMCConfig{Entries: 1 << 12}),
		}},
		{"staged", []Option{WithStagedPruning()}},
	}
	frames := frameCorpus()
	for _, h := range hierarchies {
		t.Run(h.name, func(t *testing.T) {
			for _, shards := range []int{4, 1} {
				exact := shards == 1
				ref := aclSwitch(h.opts...)
				shOpts := append(append([]Option{}, h.opts...), WithShards(shards))
				sh := aclSwitch(shOpts...)

				var fbRef, fbSh FrameBatch
				var outRef, outSh []Decision
				// Three rounds: cold (all upcalls), warming, fully warm.
				for round := uint64(1); round <= 3; round++ {
					fbRef.Reset()
					fbSh.Reset()
					for _, f := range frames {
						fbRef.Append(f, 1)
						fbSh.Append(f, 1)
					}
					outRef = ref.ProcessFrames(round, &fbRef, outRef)
					outSh = sh.ProcessFrames(round, &fbSh, outSh)
					if len(outRef) != len(outSh) {
						t.Fatalf("shards=%d round %d: decision counts diverge: %d vs %d", shards, round, len(outRef), len(outSh))
					}
					for i := range outRef {
						if outRef[i].Verdict.Verdict != outSh[i].Verdict.Verdict {
							t.Fatalf("shards=%d round %d frame %d: unsharded %v, sharded %v",
								shards, round, i, outRef[i].Verdict.Verdict, outSh[i].Verdict.Verdict)
						}
						if exact && outRef[i] != outSh[i] {
							t.Fatalf("shards=1 round %d frame %d: unsharded %+v, sharded %+v", round, i, outRef[i], outSh[i])
						}
					}
				}
				cr, cs := ref.Counters(), sh.Counters()
				if cr.Packets != cs.Packets || cr.Allowed != cs.Allowed || cr.Denied != cs.Denied {
					t.Fatalf("shards=%d: headline counters diverge:\nunsharded packets=%d allowed=%d denied=%d\n  sharded packets=%d allowed=%d denied=%d",
						shards, cr.Packets, cr.Allowed, cr.Denied, cs.Packets, cs.Allowed, cs.Denied)
				}
				if cr.ParseError != cs.ParseError {
					t.Fatalf("shards=%d: parse errors diverge: %d vs %d", shards, cr.ParseError, cs.ParseError)
				}
				if !exact {
					continue
				}
				if !reflect.DeepEqual(cr, cs) {
					t.Fatalf("shards=1: counters diverge:\nunsharded %+v\n  sharded %+v", cr, cs)
				}
				tr, ts := ref.Tiers(), sh.Tiers()
				if len(tr) != len(ts) {
					t.Fatalf("shards=1: %d tiers vs %d", len(tr), len(ts))
				}
				for i := range tr {
					if a, b := tr[i].Stats(), ts[i].Stats(); a != b {
						t.Fatalf("shards=1: tier %d stats diverge:\nunsharded %+v\n  sharded %+v", i, a, b)
					}
				}
			}
		})
	}
}

// TestShardedScalarMatchesBatch checks the scalar compatibility sweep of
// the sharded tiers against the batched walk: the same key mix through
// ProcessKey on one sharded switch and ProcessBatch on another resolves
// to identical verdicts.
func TestShardedScalarMatchesBatch(t *testing.T) {
	scalar := aclSwitch(WithShards(4))
	batch := aclSwitch(WithShards(4))
	var keys []flow.Key
	for i := 0; i < 48; i++ {
		keys = append(keys, tcpKey(0x0a000000|uint64(i), 0xac100002, uint64(30000+i%7), 443))
		keys = append(keys, tcpKey(0xcb007100|uint64(i), 0xac100002, 40000, 22))
	}
	for round := uint64(1); round <= 2; round++ {
		out := batch.ProcessBatch(round, keys, nil)
		for i, k := range keys {
			d := scalar.ProcessKey(round, k)
			if d.Verdict.Verdict != out[i].Verdict.Verdict {
				t.Fatalf("round %d key %d: scalar %v, batch %v", round, i, d.Verdict.Verdict, out[i].Verdict.Verdict)
			}
		}
	}
}

// TestWithShardsRejectsViolations: New must panic on option combinations
// that cannot honour the ConcurrentTier contract.
func TestWithShardsRejectsViolations(t *testing.T) {
	expectPanic := func(name string, opts ...Option) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New accepted an option combo that violates the sharded contract", name)
			}
		}()
		New("bad", opts...)
	}
	expectPanic("non-concurrent WithTiers", WithShards(4),
		WithTiers(NewEMCTier(cache.EMCConfig{})))
	expectPanic("SortByHits", WithShards(4),
		WithMegaflow(cache.MegaflowConfig{SortByHits: true}))
	expectPanic("MaskEvictLRU", WithShards(4),
		WithMegaflow(cache.MegaflowConfig{MaskEvictLRU: true}))
	expectPanic("WithTierWrapper", WithShards(4),
		WithTierWrapper(func(t Tier) Tier { return t }))
	expectPanic("WithConntrack", WithShards(4),
		WithConntrack(conntrack.Config{}))

	// The concurrency-safe combos must construct.
	New("ok", WithShards(4), WithTiers(
		NewShardedMegaflowTier(cache.MegaflowConfig{}, 4)))
}

// TestSharedPMDPoolSharesState: every PMD of a shared pool views the one
// sharded megaflow behind its own EMC and SMC, so a flow warmed through
// one view answers from the megaflow on another, a rule change reaches
// every view's private caches, and the single-goroutine options are
// rejected.
func TestSharedPMDPoolSharesState(t *testing.T) {
	pool := NewSharedPMDPool(3, "shp", WithSMC(cache.SMCConfig{Entries: 1 << 10}))
	if !pool.Shared() {
		t.Fatal("NewSharedPMDPool did not mark the pool shared")
	}
	for i := 0; i < pool.N(); i++ {
		v := pool.PMD(i)
		if v.EMC() == nil || v.SMC() == nil {
			t.Fatalf("pmd%d has no EMC/SMC", i)
		}
		if v.ShardedMegaflow() == nil || v.ShardedMegaflow() != pool.PMD(0).ShardedMegaflow() {
			t.Fatalf("pmd%d does not share pmd0's sharded megaflow", i)
		}
		for j := 0; j < i; j++ {
			if v.EMC() == pool.PMD(j).EMC() || v.SMC() == pool.PMD(j).SMC() {
				t.Fatalf("pmd%d and pmd%d share a front cache; EMC/SMC are per view", i, j)
			}
		}
	}
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	pool.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	pool.InstallRule(flowtable.Rule{Priority: 0})

	k := tcpKey(0x0a00a001, 0xac100002, 33000, 443)
	if d := pool.PMD(1).ProcessKey(1, k); d.Path != PathSlow || d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("cold lookup on pmd1: got %v via %v, want slow-path Allow", d.Verdict.Verdict, d.Path)
	}
	// The megaflow minted through pmd1 serves pmd2 without an upcall.
	if d := pool.PMD(2).ProcessKey(2, k); d.Path != PathMegaflow {
		t.Fatalf("pmd2 answered a flow pmd1 already installed via %v, want the shared megaflow", d.Path)
	}
	if pool.PMD(2).Counters().Upcalls != 0 {
		t.Fatal("pmd2 charged an upcall for a shared-cache hit")
	}
	// Both views now answer from their private front caches.
	for _, i := range []int{1, 2} {
		if d := pool.PMD(i).ProcessKey(3, k); d.Path != PathEMC && d.Path != PathSMC {
			t.Fatalf("pmd%d did not cache the flow in its front caches: path %v", i, d.Path)
		}
	}
	// A rule change must reach every view's private caches.
	var deny flow.Match
	deny.Key.Set(flow.FieldIPSrc, 0x0a00a001)
	deny.Mask.SetPrefix(flow.FieldIPSrc, 32)
	pool.InstallRule(flowtable.Rule{Match: deny, Priority: 20, Action: flowtable.Action{Verdict: flowtable.Deny}})
	for i := 0; i < pool.N(); i++ {
		d := pool.PMD(i).ProcessKey(4, k)
		if d.Path == PathEMC || d.Path == PathSMC {
			t.Fatalf("pmd%d answered from its front caches after the rule change", i)
		}
		if d.Verdict.Verdict != flowtable.Deny {
			t.Fatalf("pmd%d served %v after the rule change, want Deny", i, d.Verdict.Verdict)
		}
	}

	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithConntrack", WithConntrack(conntrack.Config{})},
		{"WithUpcallGuard", WithUpcallGuard(admitAllGuard{})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSharedPMDPool accepted %s", tc.name)
				}
			}()
			NewSharedPMDPool(2, "bad", tc.opt)
		}()
	}
}

// TestShardTargetsSurface: the per-shard revalidation targets expose one
// target per megaflow shard, and nil on an unsharded hierarchy.
func TestShardTargetsSurface(t *testing.T) {
	if aclSwitch().ShardTargets() != nil {
		t.Fatal("unsharded switch returned shard targets")
	}
	s := aclSwitch(WithShards(4))
	targets := s.ShardTargets()
	if len(targets) != 4 {
		t.Fatalf("got %d shard targets, want 4", len(targets))
	}
	for i, tg := range targets {
		if want := fmt.Sprintf("br0/shard%d", i); tg.Name() != want {
			t.Fatalf("target %d named %q, want %q", i, tg.Name(), want)
		}
		if len(tg.Tiers()) != 1 {
			t.Fatalf("target %d exposes %d tiers, want 1 (its megaflow shard)", i, len(tg.Tiers()))
		}
		if tg.Classifier() == nil {
			t.Fatalf("target %d has no classifier for the revalidation policy check", i)
		}
	}
}

// TestShardedConcurrentPMDTraffic is the multi-writer smoke test for the
// race leg: one goroutine per PMD view pushes bursts through the shared
// sharded switch while the main goroutine runs shard maintenance
// (eviction, flow-limit trims) against the live cache. Verdicts must
// stay correct throughout and the per-view counters must add up.
func TestShardedConcurrentPMDTraffic(t *testing.T) {
	const pmds, rounds, burstLen = 4, 50, 64
	pool := NewSharedPMDPool(pmds, "race")
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	pool.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	pool.InstallRule(flowtable.Rule{Priority: 0})

	var wg sync.WaitGroup
	errs := make(chan error, pmds)
	for p := 0; p < pmds; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sw := pool.PMD(p)
			keys := make([]flow.Key, burstLen)
			var out []Decision
			for r := 0; r < rounds; r++ {
				for i := range keys {
					// Half private flows, half shared across PMDs, so
					// installs collide with lookups on the same shards.
					src := 0x0a000000 | uint64(p)<<16 | uint64(r*burstLen+i)
					if i%2 == 0 {
						src = 0x0a7f0000 | uint64(i)
					}
					keys[i] = tcpKey(src, 0xac100002, uint64(30000+i), 443)
				}
				out = sw.ProcessBatch(uint64(r+1), keys, out)
				for i, d := range out {
					if d.Verdict.Verdict != flowtable.Allow {
						errs <- fmt.Errorf("pmd%d round %d key %d: got %v, want Allow", p, r, i, d.Verdict.Verdict)
						return
					}
				}
			}
		}(p)
	}
	smf := pool.PMD(0).ShardedMegaflow()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for now := uint64(1); ; now++ {
		select {
		case <-done:
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			var total uint64
			for p := 0; p < pmds; p++ {
				total += pool.PMD(p).Counters().Packets
			}
			if want := uint64(pmds * rounds * burstLen); total != want {
				t.Fatalf("per-view packet counters sum to %d, want %d", total, want)
			}
			return
		default:
		}
		for si := 0; si < smf.NumShards(); si++ {
			smf.ShardEvictIdle(si, now)
		}
		smf.SetFlowLimit(256)
		smf.TrimToLimit()
	}
}
