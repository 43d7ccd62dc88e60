package sm

import (
	"container/heap"
	"math/rand"
	"testing"

	"finereg/internal/isa"
	"finereg/internal/kernels"
)

// refDepReadyAt is the scoreboard check the busy mask replaced, kept as
// the reference: the latest ready time over every valid source, the
// predicate and the destination, loading regReady for each.
func refDepReadyAt(w *Warp, in *isa.Instr) int64 {
	ready := int64(0)
	for _, r := range in.Srcs[:in.NSrc] {
		if r.Valid() && w.regReady[r] > ready {
			ready = w.regReady[r]
		}
	}
	if in.Pred.Valid() && w.regReady[in.Pred] > ready {
		ready = w.regReady[in.Pred]
	}
	if in.Dst.Valid() && w.regReady[in.Dst] > ready {
		ready = w.regReady[in.Dst]
	}
	return ready
}

// TestBusyMaskMatchesReferenceScoreboard drives random programs through
// random issue histories: at every step the busy-mask depReadyAt must block
// exactly when the reference does, and until the same cycle.
func TestBusyMaskMatchesReferenceScoreboard(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		nregs := 2 + r.Intn(isa.MaxRegs-1)
		reg := func() isa.Reg {
			if r.Intn(4) == 0 {
				return isa.RegNone
			}
			return isa.Reg(r.Intn(nregs))
		}
		prog := &isa.Program{Name: "random", RegsPerThread: nregs, Instrs: make([]isa.Instr, 1+r.Intn(40))}
		for pc := range prog.Instrs {
			ops := []isa.Op{isa.OpMOV, isa.OpFFMA, isa.OpMUFU, isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpBAR, isa.OpNOP}
			prog.Instrs[pc] = isa.Instr{
				Op:   ops[r.Intn(len(ops))],
				Dst:  reg(),
				Srcs: [3]isa.Reg{reg(), reg(), reg()},
				NSrc: uint8(r.Intn(4)),
				Pred: reg(),
			}
		}
		info := NewProgInfo(&kernels.Kernel{Prog: prog, Profile: kernels.Profile{WarpsPerCTA: 1, Regs: nregs}}, Default())
		w := info.newWarp(&CTA{}, 0, 1, 0)

		var now int64
		for step := 0; step < 4000; step++ {
			pc := r.Intn(prog.Len())
			in, row := prog.At(pc), &info.rows[pc]
			want := refDepReadyAt(w, in)
			got := w.depReadyAt(row.depMask, now)
			if (got > now) != (want > now) || (want > now && got != want) {
				t.Fatalf("seed %d step %d pc %d now %d: busy-mask says %d, reference %d", seed, step, pc, now, got, want)
			}
			if r := w.UntrackedPending(now); r >= 0 {
				t.Fatalf("seed %d step %d: R%d pending but not busy", seed, step, r)
			}
			switch {
			case want > now && r.Intn(2) == 0:
				now = want // sleep until the dependency resolves, as block does
			case want <= now && row.dst.Valid():
				// Issue: latencies span same-cycle results to DRAM round trips.
				w.setReady(row.dst, now+[]int64{0, 4, 16, 24, 28, 188, 700}[r.Intn(7)])
				now += int64(r.Intn(3))
			default:
				now += int64(r.Intn(40))
			}
		}
	}
}

// refHeap is container/heap over the same events — the order eventHeap
// promises to reproduce, ties included.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapPopOrderPinned pins the pop order of a fixed push sequence
// with equal-time warp and CTA events. Equal-time order is not arbitrary:
// it decides which of two same-cycle OnCTAReady calls reaches the policy
// first, and replacing the heap with a push-order (FIFO) tie-break moves
// LI/finereg and NW cycle counts. The expected order below is the binary
// heap's; a FIFO queue would pop 0 4 6 8 1 3 9 2 5 7.
func TestEventHeapPopOrderPinned(t *testing.T) {
	ats := []int64{10, 20, 30, 20, 10, 30, 10, 30, 10, 20}
	warps := make([]*Warp, len(ats))
	ctas := make([]*CTA, len(ats))
	id := map[any]int{}
	var h eventHeap
	for i, at := range ats {
		e := event{at: at}
		if i%3 == 2 { // entries 2, 5, 8 are CTA-ready events
			ctas[i] = &CTA{ID: i}
			e.cta = ctas[i]
			id[ctas[i]] = i
		} else {
			warps[i] = &Warp{Idx: i}
			e.warp = warps[i]
			id[warps[i]] = i
		}
		h.push(e)
	}
	var got []int
	for len(h) > 0 {
		e := h.pop()
		if e.warp != nil {
			got = append(got, id[e.warp])
		} else {
			got = append(got, id[e.cta])
		}
	}
	want := []int{0, 4, 8, 6, 3, 9, 1, 2, 7, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestEventHeapMatchesContainerHeap interleaves random pushes and pops,
// with many equal times, against container/heap.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h eventHeap
	ref := &refHeap{}
	for step := 0; step < 20000; step++ {
		if len(h) == 0 || r.Intn(5) < 3 {
			e := event{at: int64(r.Intn(12)), warp: &Warp{Idx: step}}
			h.push(e)
			heap.Push(ref, e)
			continue
		}
		got, want := h.pop(), heap.Pop(ref).(event)
		if got != want {
			t.Fatalf("step %d: popped warp %d @%d, container/heap pops warp %d @%d",
				step, got.warp.Idx, got.at, want.warp.Idx, want.at)
		}
	}
}
