package audit_test

import (
	"errors"
	"testing"

	"finereg/internal/audit"
	"finereg/internal/kernels"
	"finereg/internal/mem"
	"finereg/internal/regfile"
	"finereg/internal/sm"
)

// TestCheckGridRules corrupts one grid quantity per row on a two-SM
// machine that has just bound CS, and expects the named grid:* rule; the
// uncorrupted machine passes.
func TestCheckGridRules(t *testing.T) {
	rows := []struct {
		rule    string
		corrupt func(g *audit.Grid)
	}{
		{"", func(*audit.Grid) {}},
		{"grid:dispatchBounds", func(g *audit.Grid) { g.Dispatched = g.Total + 1 }},
		{"grid:launchConservation", func(g *audit.Grid) { g.SMs[1].Cnt.CTAsLaunched++ }},
		{"grid:ctaRange", func(g *audit.Grid) { g.SMs[0].Residents()[0].ID = g.Total }},
		{"grid:ctaDup", func(g *audit.Grid) { g.SMs[1].Residents()[0].ID = g.SMs[0].Residents()[0].ID }},
	}
	for _, row := range rows {
		g := boundGrid(t, 64)
		row.corrupt(&g)
		err := audit.CheckGrid(g, 0)
		if row.rule == "" {
			if err != nil {
				t.Errorf("clean grid: %v", err)
			}
			continue
		}
		var v *audit.Violation
		if !errors.As(err, &v) || v.Rule != row.rule {
			t.Errorf("want rule %s, got %v", row.rule, err)
		}
	}
}

// boundGrid binds CS on two SMs that share one dispatcher, the way gpu.Run
// does, and describes the result.
func boundGrid(t *testing.T, grid int) audit.Grid {
	t.Helper()
	p, err := kernels.ProfileByName("CS")
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.MustBuild(p, grid)
	cfg := sm.Default()
	hier := mem.NewHierarchy(2<<20, 8, 600, 313, mem.DefaultLatencies())
	d := &disp{total: grid}
	var sms []*sm.SM
	for i := range 2 {
		s := sm.New(i, cfg, hier, d, regfile.NewVirtualThread(cfg, hier))
		s.BindKernel(k)
		if len(s.Residents()) == 0 {
			t.Fatalf("SM%d launched no CTA of a %d-CTA grid", i, grid)
		}
		sms = append(sms, s)
	}
	return audit.Grid{SMs: sms, Dispatched: d.next, Total: d.total}
}
