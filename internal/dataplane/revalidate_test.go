package dataplane_test

import (
	"testing"

	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/revalidator"
)

// maintained attaches sw to a revalidator with the OVS 10-unit max-idle.
func maintained(sw *dataplane.Switch) *revalidator.Revalidator {
	rev := revalidator.New(revalidator.Config{MaxIdle: 10})
	rev.Attach(sw)
	return rev
}

func TestRevalidatorEvictsIdleMegaflows(t *testing.T) {
	s := dataplane.ACLSwitch()
	rev := maintained(s)
	s.ProcessKey(1, dataplane.TCPKey(0x0a000001, 0, 1, 2))
	s.ProcessKey(1, dataplane.TCPKey(0xc0000001, 0, 1, 2))
	if s.Megaflow().Len() != 2 {
		t.Fatalf("megaflows = %d", s.Megaflow().Len())
	}
	// Keep the first alive, let the second idle out.
	s.ProcessKey(15, dataplane.TCPKey(0x0a000001, 0, 3, 4)) // megaflow hit refreshes
	rev.Tick(22)
	if evicted := rev.Stats().Last.IdleEvicted; evicted != 1 {
		t.Fatalf("evicted = %d", evicted)
	}
	if s.Megaflow().Len() != 1 {
		t.Fatalf("megaflows after reval = %d", s.Megaflow().Len())
	}
}

func TestRevalidatorEarlyClock(t *testing.T) {
	s := dataplane.ACLSwitch()
	rev := maintained(s)
	s.ProcessKey(1, dataplane.TCPKey(0x0a000001, 0, 1, 2))
	rev.Tick(5)
	if evicted := rev.Stats().Last.IdleEvicted; evicted != 0 {
		t.Fatalf("evicted = %d before idle horizon", evicted)
	}
}

func TestStatefulRevalidatorExpiresConns(t *testing.T) {
	sw := dataplane.StatefulSwitch(t, conntrack.Config{IdleTimeout: 5})
	rev := maintained(sw)
	sw.ProcessKey(1, dataplane.Tup("10.1.2.3", "172.16.0.1", 40000, 443).Key(1))
	if sw.Conntrack().Len() != 1 {
		t.Fatal("precondition")
	}
	rev.Tick(100)
	if sw.Conntrack().Len() != 0 {
		t.Fatal("idle connection survived the revalidator")
	}
}
