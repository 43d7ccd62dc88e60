package experiments

// renderer is what every result struct of this package is to a front end.
type renderer = interface{ Render() string }

// Artifact is one table or figure of the evaluation: the id that selects it
// (finereg-experiments -only), its title, and the function regenerating it.
type Artifact struct {
	ID, Title string
	Run       func(Options) (interface{ Render() string }, error)
}

// Artifacts returns the evaluation in presentation order. It is the one
// index: finereg-experiments runs it, testdata/quick.txt pins it, and
// DESIGN.md §5 lists it.
func Artifacts() []Artifact {
	return []Artifact{
		{"t2", "Table II: benchmark classification", static(TableII)},
		{"f2", "Figure 2: resource scaling", dynamic(Figure2)},
		{"f3", "Figure 3: per-CTA overhead", static(Figure3)},
		{"f4", "Figure 4: CS case study", dynamic(Figure4)},
		{"f5", "Figure 5: register usage windows", dynamic(Figure5)},
		{"t3", "Table III: cycles to full stall", dynamic(TableIII)},
		{"f12", "Figure 12: concurrent CTAs", swept(Figure12)},
		{"f13", "Figure 13: normalized IPC", swept(Figure13)},
		{"f14", "Figure 14: SRP ratio and depletion stalls", dynamic(Figure14)},
		{"f15", "Figure 15: memory traffic", dynamic(Figure15)},
		{"f16", "Figure 16: energy", swept(Figure16)},
		{"f17", "Figure 17: ACRF/PCRF split sensitivity", dynamic(Figure17)},
		{"f18", "Figure 18: SM scaling", func(o Options) (renderer, error) { return Figure18(o, nil) }},
		{"f19", "Figure 19: unified on-chip memory", dynamic(Figure19)},
		{"abl", "Ablations: FineReg design choices", dynamic(Ablations)},
		{"stalls", "Stall attribution: warp-slot cycle breakdown", dynamic(StallBreakdowns)},
		{"mps", "MPS co-scheduling: multi-tenant interference", func(o Options) (renderer, error) { return MPS(o, nil) }},
	}
}

// static adapts an artifact computed from the benchmark table alone.
func static[R renderer](f func() R) func(Options) (renderer, error) {
	return func(Options) (renderer, error) { return f(), nil }
}

// dynamic adapts an artifact that simulates.
func dynamic[R renderer](f func(Options) (R, error)) func(Options) (renderer, error) {
	return func(o Options) (renderer, error) { return f(o) }
}

// swept adapts a figure derived from the five-configuration sweep. Each
// re-requests the full sweep; the engine's cache collapses the repeats, so
// the simulations behind Figures 12/13/16 run once no matter how many of the
// three are selected.
func swept[R renderer](f func(*Sweep) R) func(Options) (renderer, error) {
	return func(o Options) (renderer, error) {
		s, err := RunSweep(o)
		if err != nil {
			return nil, err
		}
		return f(s), nil
	}
}
