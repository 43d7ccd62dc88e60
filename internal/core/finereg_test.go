package core

import (
	"testing"

	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/sm"
)

type gridDisp struct{ next, total int }

func (d *gridDisp) NextCTAID() int {
	if d.next >= d.total {
		return -1
	}
	d.next++
	return d.next - 1
}
func (d *gridDisp) Remaining() int { return d.total - d.next }

// pcrfFreeAccount returns FineReg's pcrfFree account on s.
func pcrfFreeAccount(t *testing.T, f *FineReg, s *sm.SM) sm.AuditAccount {
	t.Helper()
	for _, a := range f.AuditAccounting(s) {
		if a.Name == "pcrfFree" {
			return a
		}
	}
	t.Fatal("no pcrfFree account")
	return sm.AuditAccount{}
}

// TestPCRFFreeAccountSeesStrayChain: the auditor's pcrfFree account holds
// while FineReg alone stores and releases chains, and a chain stored or
// released behind its back makes Value differ from Expected.
func TestPCRFFreeAccountSeesStrayChain(t *testing.T) {
	prof, err := kernels.ProfileByName("LI")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sm.Default()
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	f := NewFineReg(cfg, hier, cfg.RegFileBytes/2, cfg.RegFileBytes/2)
	s := sm.New(0, cfg, hier, &gridDisp{total: 64}, f)
	s.BindKernel(sm.NewProgInfo(kernels.MustBuild(prof, 64), cfg), 0)
	var pending *sm.CTA
	for now := int64(0); pending == nil; {
		if now > 1_000_000 {
			t.Fatal("no CTA reached the PCRF")
		}
		if a := pcrfFreeAccount(t, f, s); a.Value != a.Expected {
			t.Fatalf("cycle %d: pcrfFree %d, expected %d on an untouched file", now, a.Value, a.Expected)
		}
		next, _ := s.Tick(now)
		now = max(next, now+1)
		for _, c := range s.Residents() {
			if c.State == sm.CTAPendingPCRF && c.LiveRegs > 0 {
				pending = c
			}
		}
	}

	head, _ := f.pcrf.StoreChain(make([]RegRef, 3))
	if a := pcrfFreeAccount(t, f, s); a.Value != a.Expected-3 {
		t.Errorf("chain stored behind FineReg's back: pcrfFree %d, expected %d, want 3 short", a.Value, a.Expected)
	}
	f.pcrf.ReleaseChainCount(head)
	if a := pcrfFreeAccount(t, f, s); a.Value != a.Expected {
		t.Fatalf("after the stray chain's release: pcrfFree %d, expected %d", a.Value, a.Expected)
	}
	n := f.pcrf.ReleaseChainCount(f.info(pending).head)
	if a := pcrfFreeAccount(t, f, s); a.Value != a.Expected+n {
		t.Errorf("pending CTA's %d-entry chain released behind FineReg's back: pcrfFree %d, expected %d", n, a.Value, a.Expected)
	}
}
