package cache

import "policyinject/internal/flow"

// ReferenceLookup is the per-key scan the sweep is checked against: the
// flat scan walks the subtables in order, one hash probe per mask, and
// the staged scan walks the ranked order with every prefilter checked
// per key. It shares no sweep code with Lookup and LookupBatch, so the
// batch==per-key tests compare two independent routines.
func (m *Megaflow) ReferenceLookup(k flow.Key, now uint64) (*Entry, int, bool) {
	if m.cfg.StagedPruning {
		return m.referenceStaged(k, now)
	}
	for si, st := range m.subtables {
		if ent, ok := st.entries[st.mask.Apply(k)]; ok {
			ent.credit(1, now)
			st.credit(1, now)
			m.publish(1, 0, uint64(si+1))
			m.maybeResort()
			return ent, si + 1, true
		}
	}
	nSub := len(m.subtables)
	m.publish(0, 1, uint64(nSub))
	m.maybeResort()
	return nil, nSub, false
}

// referenceStaged is the per-key staged-pruning scan: ranked subtable
// order, free prefilter rejects, stage-hash bails, full probes only
// where the prefilters pass. The returned cost is the number of
// subtables physically costed (bails + full probes).
func (m *Megaflow) referenceStaged(k flow.Key, now uint64) (*Entry, int, bool) {
	m.Lookups++
	cost := 0
	for _, st := range m.subtables {
		ent, outcome := st.stagedProbe(&k, false, false)
		switch outcome {
		case probePruned:
			m.SubtablePrunes++
			continue
		case probeBailed:
			cost++
			m.SubtableVisits++
			m.StageBails++
			continue
		case probeMissed:
			cost++
			m.SubtableVisits++
			continue
		}
		cost++
		m.SubtableVisits++
		ent.credit(1, now)
		st.credit(1, now)
		st.staged.sinceRank++
		m.Hits++
		m.MasksScanned += uint64(cost)
		m.maybeRank()
		return ent, cost, true
	}
	m.Misses++
	m.MasksScanned += uint64(cost)
	m.maybeRank()
	return nil, cost, false
}
