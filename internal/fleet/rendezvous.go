// Package fleet turns the single-node simulation service (internal/serve)
// into a coordinator/worker cluster. The coordinator fronts the exact v1
// API clients already speak: submissions are admitted, coalesced, and
// cached exactly as on a single node, but execution is dispatched over
// HTTP to worker nodes — each an ordinary finereg-serve instance — with
// cache-aware routing onto free node slots and requeue-on-failure.
//
// Routing is rendezvous (highest-random-weight) hashing on the job's
// content-addressed key: the same job always prefers the same worker, so
// a worker's local disk cache (its L2) accumulates exactly the keys it
// keeps being asked for. The coordinator's own cache is the fleet's
// shared tier — consulted before any dispatch, populated by write-through
// from the workers (runner.RemoteTier over HTTP, /v1/cache/{key}) — so a
// result computed anywhere is a hit everywhere.
package fleet

import "hash/fnv"

// rendezvousScore is the HRW weight of (key, node): each node hashes the
// key independently and the highest score wins, so adding or removing one
// node only remaps the keys that node won — every other key keeps its
// placement (and its warmed worker cache).
func rendezvousScore(key, node string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{'|'})
	h.Write([]byte(node))
	return h.Sum64()
}

// rendezvousRank orders nodes by descending score for key: [0] is the
// primary placement, the rest the failover order.
func rendezvousRank(key string, nodes []string) []string {
	out := append([]string(nil), nodes...)
	// Insertion sort by score descending (ties by name for determinism);
	// fleets are a handful of nodes.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			sj, sp := rendezvousScore(key, out[j]), rendezvousScore(key, out[j-1])
			if sj > sp || (sj == sp && out[j] < out[j-1]) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}
