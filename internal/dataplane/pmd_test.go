package dataplane

import (
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// pmdPool builds an n-core pool carrying the two-field attack ACL
// (hand-rolled here: importing internal/attack would cycle).
func pmdPool(t testing.TB, n int) (*PMDPool, []flow.Key) {
	t.Helper()
	pool := NewPMDPool(n, "hv", WithoutEMC())
	var ipRule flow.Match
	ipRule.Key.Set(flow.FieldIPSrc, 0x0a000001)
	ipRule.Mask.SetExact(flow.FieldIPSrc)
	pool.InstallRule(flowtable.Rule{Match: ipRule, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var portRule flow.Match
	portRule.Key.Set(flow.FieldTPDst, 80)
	portRule.Mask.SetExact(flow.FieldTPDst)
	pool.InstallRule(flowtable.Rule{Match: portRule, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	pool.InstallRule(flowtable.Rule{Priority: 0})

	// One covert key per (d1, d2) divergence combination: 32 x 16 = 512.
	var keys []flow.Key
	for d1 := 0; d1 < 32; d1++ {
		for d2 := 0; d2 < 16; d2++ {
			var k flow.Key
			k.Set(flow.FieldEthType, flow.EthTypeIPv4)
			k.Set(flow.FieldIPProto, flow.ProtoTCP)
			k.Set(flow.FieldIPSrc, 0x0a000001^(1<<uint(31-d1)))
			k.Set(flow.FieldTPDst, uint64(80^(1<<uint(15-d2))))
			keys = append(keys, k)
		}
	}
	return pool, keys
}

func TestPMDSteeringIsStable(t *testing.T) {
	pool, keys := pmdPool(t, 4)
	for _, k := range keys[:64] {
		first := pool.Steer(k)
		for trial := 0; trial < 3; trial++ {
			if pool.Steer(k) != first {
				t.Fatal("RSS steering not deterministic")
			}
		}
	}
}

// TestPMDAttackSpreadAcrossCores: RSS dilutes the per-core mask count —
// each PMD ends up with roughly 1/N of the covert masks, and the sum
// matches the single-core count.
func TestPMDAttackSpreadAcrossCores(t *testing.T) {
	const n = 4
	pool, keys := pmdPool(t, n)
	for _, k := range keys {
		pool.ProcessKey(1, k)
	}
	per := pool.MasksPerPMD()
	total := 0
	for i, m := range per {
		total += m
		// Each core should hold a substantial share, not everything.
		if m < 512/n/2 || m > 512*3/(n*2) {
			t.Errorf("pmd %d holds %d masks; expected ~%d (per-core dilution)", i, m, 512/n)
		}
	}
	if total != 512 {
		t.Errorf("masks across cores = %d, want 512 (keys partition)", total)
	}
}

// TestPMDVictimPaysOnlyItsCore: the victim flow is pinned to one PMD and
// scans only that core's masks.
func TestPMDVictimPaysOnlyItsCore(t *testing.T) {
	pool, keys := pmdPool(t, 4)
	for _, k := range keys {
		pool.ProcessKey(1, k)
	}
	var victim flow.Key
	victim.Set(flow.FieldEthType, flow.EthTypeIPv4)
	victim.Set(flow.FieldIPProto, flow.ProtoTCP)
	victim.Set(flow.FieldIPSrc, 0xc0a80005)
	victim.Set(flow.FieldTPDst, 5201)
	core := pool.Steer(victim)
	d := pool.ProcessKey(2, victim)
	coreMasks := pool.MasksPerPMD()[core]
	if d.MasksScanned > coreMasks+2 {
		t.Fatalf("victim scanned %d masks; its core holds %d", d.MasksScanned, coreMasks)
	}
	if d.Verdict.Verdict != flowtable.Deny {
		t.Fatalf("victim verdict: %v (no allow rule covers it)", d.Verdict)
	}
}

func TestPMDProcessBatchParallel(t *testing.T) {
	pool, keys := pmdPool(t, 4)
	out := pool.ProcessBatch(1, keys, nil)
	if len(out) != len(keys) {
		t.Fatalf("batch produced %d decisions for %d keys", len(out), len(keys))
	}
	for i, d := range out {
		if d.Verdict.Verdict != flowtable.Deny {
			t.Fatalf("covert key %d verdict %v, want deny", i, d.Verdict)
		}
	}
	// Same end state as sequential processing.
	sum := 0
	for _, m := range pool.MasksPerPMD() {
		sum += m
	}
	if sum != 512 {
		t.Fatalf("masks after batch = %d", sum)
	}
	// Replay is idempotent and safe to run again in parallel; the output
	// buffer is reused when large enough.
	out2 := pool.ProcessBatch(2, keys, out)
	if &out2[0] != &out[0] {
		t.Error("ProcessBatch did not reuse the output buffer")
	}
	sum2 := 0
	for _, m := range pool.MasksPerPMD() {
		sum2 += m
	}
	if sum2 != sum {
		t.Fatalf("parallel replay changed masks %d -> %d", sum, sum2)
	}
}

// TestPMDBatchMatchesSequential asserts the batch contract: RSS steering
// is deterministic, and ProcessBatch on one pool yields decision-for-
// decision the same results (and the same per-core cache state) as a
// sequential ProcessKey loop on an identically-built pool.
func TestPMDBatchMatchesSequential(t *testing.T) {
	seqPool, keys := pmdPool(t, 4)
	batchPool, _ := pmdPool(t, 4)

	// Steering is a pure function of the key: identical across pools.
	for _, k := range keys {
		if seqPool.Steer(k) != batchPool.Steer(k) {
			t.Fatal("RSS steering differs between identically-built pools")
		}
	}

	seq := make([]Decision, 0, len(keys))
	for _, k := range keys {
		seq = append(seq, seqPool.ProcessKey(1, k))
	}
	batch := batchPool.ProcessBatch(1, keys, nil)

	for i := range keys {
		if seq[i] != batch[i] {
			t.Fatalf("key %d: sequential %+v != batch %+v", i, seq[i], batch[i])
		}
	}
	seqMasks := seqPool.MasksPerPMD()
	batchMasks := batchPool.MasksPerPMD()
	for i := range seqMasks {
		if seqMasks[i] != batchMasks[i] {
			t.Fatalf("pmd %d masks: sequential %d != batch %d", i, seqMasks[i], batchMasks[i])
		}
	}
}

func TestPMDPoolDefaults(t *testing.T) {
	pool := NewPMDPool(0, "hv")
	if pool.N() != 1 {
		t.Fatalf("N = %d, want clamped 1", pool.N())
	}
	if pool.PMD(0) == nil {
		t.Fatal("missing pmd")
	}
}
