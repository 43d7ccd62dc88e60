package fleet

import (
	"fmt"
	"io"
	"net/http"
	"testing"
)

// httptestGet fetches a URL body (test helper shared with fleet_test.go).
func httptestGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestRendezvousStable: placement is deterministic and independent of the
// node-list order.
func TestRendezvousStable(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	perm := []string{"http://c:1", "http://a:1", "http://b:1"}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064x", i)
		r1 := rendezvousRank(key, nodes)
		r2 := rendezvousRank(key, perm)
		for j := range r1 {
			if r1[j] != r2[j] {
				t.Fatalf("key %s: rank depends on input order: %v vs %v", key, r1, r2)
			}
		}
	}
}

// TestRendezvousMinimalRemap: removing one node only remaps the keys that
// node owned; every other key keeps its placement (and its warm cache).
func TestRendezvousMinimalRemap(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	without := []string{"http://a:1", "http://b:1"}
	moved, owned := 0, 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("%064x", i*7919)
		before := rendezvousRank(key, nodes)[0]
		after := rendezvousRank(key, without)[0]
		if before == "http://c:1" {
			owned++
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed node changed placement", moved)
	}
	if owned == 0 {
		t.Error("degenerate test: removed node owned no keys")
	}
}

// TestRendezvousSpread: a 3-node fleet should see every node win a
// non-trivial share of keys (FNV mixing sanity check).
func TestRendezvousSpread(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	counts := map[string]int{}
	const n = 600
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%064x", i*104729)
		counts[rendezvousRank(key, nodes)[0]]++
	}
	for _, u := range nodes {
		if counts[u] < n/10 {
			t.Errorf("node %s won only %d/%d keys", u, counts[u], n)
		}
	}
}
