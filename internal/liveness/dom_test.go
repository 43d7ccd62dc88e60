package liveness

import (
	"math/rand"
	"testing"
)

// randomCFG builds a CFG of n blocks whose edges are drawn at random: a
// block has no successor (an exit) about a third of the time, and a target
// may lie anywhere, so back edges — loops — and several exits are common.
func randomCFG(r *rand.Rand, n int) *CFG {
	g := &CFG{Blocks: make([]*Block, n)}
	for i := range g.Blocks {
		g.Blocks[i] = &Block{ID: i}
	}
	for _, b := range g.Blocks {
		for range r.Intn(3) {
			t := r.Intn(n)
			dup := false
			for _, s := range b.Succs {
				dup = dup || s == t
			}
			if !dup {
				b.Succs = append(b.Succs, t)
				g.Blocks[t].Preds = append(g.Blocks[t].Preds, b.ID)
			}
		}
	}
	return g
}

// reaches reports whether a walk from b along edges (Succs, or Preds when
// back is set) meets a block goal accepts without passing through removed.
func reaches(g *CFG, b, removed int, back bool, goal func(*Block) bool) bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{b}
	seen[b] = true
	for len(stack) > 0 {
		cur := g.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if goal(cur) {
			return true
		}
		next := cur.Succs
		if back {
			next = cur.Preds
		}
		for _, s := range next {
			if s != removed && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// immediate picks, among b's strict (post-)dominators ds, the one every
// other dominates — the brute-force reading of "immediate" — or -1 when ds
// is empty. dominates(a, d) reports whether a (post-)dominates d.
func immediate(t *testing.T, ds []int, dominates func(a, d int) bool) int {
	t.Helper()
	want := -1
	for _, d := range ds {
		all := true
		for _, a := range ds {
			all = all && (a == d || dominates(a, d))
		}
		if all {
			if want != -1 {
				t.Fatalf("two immediate candidates %d and %d among %v", want, d, ds)
			}
			want = d
		}
	}
	if len(ds) > 0 && want == -1 {
		t.Fatalf("no immediate candidate among %v", ds)
	}
	return want
}

// TestPostDominatorsMatchBruteForce checks PostDominators on random CFGs
// against the definition: d post-dominates b iff removing d cuts b off
// from every exit. Exit blocks map to themselves; a block that reaches no
// exit, or whose strict post-dominators are none (its paths end at
// different exits), maps to -1. Dominators is checked the same way against
// reachability from the entry.
func TestPostDominatorsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	isExit := func(b *Block) bool { return len(b.Succs) == 0 }
	isEntry := func(b *Block) bool { return b.ID == 0 }
	multiExit := 0
	for iter := 0; iter < 2000; iter++ {
		g := randomCFG(r, 2+r.Intn(11))
		exits := 0
		for _, b := range g.Blocks {
			if isExit(b) {
				exits++
			}
		}
		if exits > 1 {
			multiExit++
		}
		pdom, idom := g.PostDominators(), g.Dominators()
		for _, b := range g.Blocks {
			want := -1
			switch {
			case isExit(b):
				want = b.ID
			case reaches(g, b.ID, -1, false, isExit):
				var ds []int
				for d := range g.Blocks {
					if d != b.ID && !reaches(g, b.ID, d, false, isExit) {
						ds = append(ds, d)
					}
				}
				want = immediate(t, ds, func(a, d int) bool { return !reaches(g, d, a, false, isExit) })
			}
			if pdom[b.ID] != want {
				t.Fatalf("graph %d, B%d: post-dominator %d, want %d\n%v", iter, b.ID, pdom[b.ID], want, edges(g))
			}

			want = -1
			switch {
			case b.ID == 0:
				want = 0
			case reaches(g, b.ID, -1, true, isEntry):
				var ds []int
				for d := range g.Blocks {
					if d != b.ID && !reaches(g, b.ID, d, true, isEntry) {
						ds = append(ds, d)
					}
				}
				want = immediate(t, ds, func(a, d int) bool { return !reaches(g, d, a, true, isEntry) })
			}
			if idom[b.ID] != want {
				t.Fatalf("graph %d, B%d: dominator %d, want %d\n%v", iter, b.ID, idom[b.ID], want, edges(g))
			}
		}
	}
	if multiExit < 500 {
		t.Errorf("only %d of 2000 graphs have several exits", multiExit)
	}
}

func edges(g *CFG) [][]int {
	out := make([][]int, len(g.Blocks))
	for i, b := range g.Blocks {
		out[i] = b.Succs
	}
	return out
}
