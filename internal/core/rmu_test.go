package core

import (
	"testing"
	"testing/quick"

	"finereg/internal/mem"
)

func testHier() *mem.Hierarchy {
	return mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
}

func TestRMUMissThenHit(t *testing.T) {
	h := testHier()
	r := NewRMU(h)
	d1 := r.Lookup(42, 0)
	if d1 <= 0 {
		t.Errorf("cold lookup delay = %d, want > 0 (off-chip fetch)", d1)
	}
	if r.Misses != 1 || r.Hits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1", r.Hits, r.Misses)
	}
	if d2 := r.Lookup(42, 1000); d2 != 0 {
		t.Errorf("warm lookup delay = %d, want 0", d2)
	}
	if r.Hits != 1 {
		t.Errorf("hits = %d, want 1", r.Hits)
	}
	if got := h.DRAM.Bytes(mem.TrafficBitvec); got != bitvecBytes {
		t.Errorf("bit-vector traffic = %d bytes, want %d", got, bitvecBytes)
	}
}

func TestRMUDirectMappedConflict(t *testing.T) {
	r := NewRMU(testHier())
	r.Lookup(5, 0)
	// PC 5+32 maps to the same set in the 32-entry direct-mapped cache.
	r.Lookup(5+bitvecCacheEntries, 100)
	if d := r.Lookup(5, 2000); d == 0 {
		t.Error("conflicting PC should have evicted the original entry")
	}
	if r.Misses != 3 {
		t.Errorf("misses = %d, want 3 (two cold + one conflict)", r.Misses)
	}
}

func TestRMUReset(t *testing.T) {
	r := NewRMU(testHier())
	r.Lookup(1, 0)
	r.Reset()
	if d := r.Lookup(1, 100); d == 0 {
		t.Error("lookup after Reset should miss")
	}
}

// Property: lookups are idempotent within a working set of <= 32
// well-spread PCs (one miss each, hits forever after).
func TestRMUWorkingSetQuick(t *testing.T) {
	f := func(base uint16) bool {
		r := NewRMU(testHier())
		// 8 PCs spread across distinct sets.
		var pcs []int
		for i := 0; i < 8; i++ {
			pcs = append(pcs, int(base%1000)+i*4)
		}
		seen := map[int]bool{}
		distinct := map[int]bool{}
		for _, pc := range pcs {
			distinct[pc&(bitvecCacheEntries-1)] = true
			seen[pc] = true
		}
		if len(distinct) != len(seen) {
			return true // conflicting set — skip this input
		}
		for _, pc := range pcs {
			r.Lookup(pc, 0)
		}
		for _, pc := range pcs {
			if r.Lookup(pc, 10000) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatusMonitorEncoding(t *testing.T) {
	m := &StatusMonitor{}
	m.Set(0, CtxPipeline, RegACRF)
	m.Set(127, CtxSharedMem, RegPCRF)
	m.Set(63, CtxNotLaunched, RegNotLaunched)
	if c, r := m.Get(0); c != CtxPipeline || r != RegACRF {
		t.Errorf("slot 0 = %d/%d", c, r)
	}
	if c, r := m.Get(127); c != CtxSharedMem || r != RegPCRF {
		t.Errorf("slot 127 = %d/%d", c, r)
	}
	if !m.IsActive(0) {
		t.Error("slot 0 should be active (pipeline + ACRF)")
	}
	if m.IsActive(127) || m.IsActive(63) {
		t.Error("pending/unlaunched slots must not be active")
	}
}

func TestStatusMonitorPriority(t *testing.T) {
	m := &StatusMonitor{}
	m.Set(1, CtxSharedMem, RegACRF) // preferred resume candidate
	m.Set(2, CtxSharedMem, RegPCRF) // second choice
	m.Set(3, CtxPipeline, RegACRF)  // active: not a candidate
	if p := m.SwitchPriority(1); p != 0 {
		t.Errorf("priority(ctx=shmem, reg=ACRF) = %d, want 0", p)
	}
	if p := m.SwitchPriority(2); p != 1 {
		t.Errorf("priority(ctx=shmem, reg=PCRF) = %d, want 1", p)
	}
	if p := m.SwitchPriority(3); p != -1 {
		t.Errorf("priority(active) = %d, want -1", p)
	}
}

func TestStatusMonitorStorage(t *testing.T) {
	m := &StatusMonitor{}
	// Section V-F: 256 bits per field x 2 fields.
	if got := m.StorageBits(); got != 512 {
		t.Errorf("StorageBits = %d, want 512", got)
	}
}

func TestStatusMonitorBounds(t *testing.T) {
	m := &StatusMonitor{}
	for _, bad := range []int{-1, MonitorSlots} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) should panic", bad)
				}
			}()
			m.Set(bad, CtxPipeline, RegACRF)
		}()
	}
}

// Property: Set/Get round-trips for every slot and every encoding without
// cross-slot interference.
func TestStatusMonitorQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		m := &StatusMonitor{}
		ref := map[int][2]uint8{}
		for _, op := range ops {
			slot := int(op) % MonitorSlots
			c := uint8(op>>8) % 3
			r := uint8(op>>11) % 3
			m.Set(slot, CtxLoc(c), RegLoc(r))
			ref[slot] = [2]uint8{c, r}
		}
		for slot, want := range ref {
			c, r := m.Get(slot)
			if uint8(c) != want[0] || uint8(r) != want[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
