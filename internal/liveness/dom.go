package liveness

// Dominator analysis over the CFG. The post-dominator tree supplies the
// PDOM reconvergence points used both by the functional SIMT executor (to
// reconverge diverged warps) and by the paper's compiler traversal argument
// (Figure 9: analysing a block of a diverging branch only needs the path to
// the immediate post-dominator).

// Dominators computes the immediate-dominator array over the CFG using the
// iterative dataflow algorithm (Cooper/Harvey/Kennedy style, on reverse
// post-order). idom[0] == 0; unreachable blocks get idom -1.
func (g *CFG) Dominators() []int {
	succs := func(b int) []int { return g.Blocks[b].Succs }
	preds := func(b int) []int { return g.Blocks[b].Preds }
	return idoms(len(g.Blocks), 0, succs, preds)
}

// PostDominators computes the immediate post-dominator of each block: the
// first block control must pass through on every path from the block to
// program exit. Exit blocks (no successors) post-dominate themselves.
// Blocks that cannot reach an exit get -1, and so do blocks whose paths
// end at different exits without meeting first.
//
// It is the dominator tree of the reversed CFG rooted at a virtual exit
// node that every exit block feeds, so a CFG with several exits has the
// one root the fixpoint needs.
func (g *CFG) PostDominators() []int {
	n := len(g.Blocks)
	var exits []int
	for _, b := range g.Blocks {
		if len(b.Succs) == 0 {
			exits = append(exits, b.ID)
		}
	}
	virtual := []int{n}
	// In the reversed CFG a block's successors are its predecessors, and
	// the virtual exit's are the exit blocks.
	succs := func(b int) []int {
		if b == n {
			return exits
		}
		return g.Blocks[b].Preds
	}
	preds := func(b int) []int {
		if len(g.Blocks[b].Succs) == 0 {
			return virtual
		}
		return g.Blocks[b].Succs
	}
	idom := idoms(n+1, n, succs, preds)[:n]
	for b, d := range idom {
		if d == n {
			idom[b] = -1
			if len(g.Blocks[b].Succs) == 0 {
				idom[b] = b
			}
		}
	}
	return idom
}

// idoms runs the classic "engineered" dominator fixpoint over a graph of n
// nodes rooted at root: idom[root] == root, and nodes root cannot reach
// get -1.
func idoms(n, root int, succs, preds func(int) []int) []int {
	// Reverse post-order from root.
	visited := make([]bool, n)
	var order []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range succs(b) {
			if !visited[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(root)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	pos := make([]int, n) // position of node in order, for intersect
	for i, b := range order {
		pos[b] = i
	}
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			newIdom := -1
			for _, p := range preds(b) {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// ImmediatePostDom returns the immediate post-dominator block ID of b, or
// -1 when b is an exit block, cannot reach one, or reaches different exits
// without a common block on the way. This is the PDOM reconvergence point
// for a divergent branch ending block b.
func (g *CFG) ImmediatePostDom(b int) int {
	pd := g.PostDominators()
	if pd[b] == b || pd[b] < 0 {
		return -1
	}
	return pd[b]
}
