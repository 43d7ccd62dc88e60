package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func refs(n int) []RegRef {
	out := make([]RegRef, n)
	for i := range out {
		out[i] = RegRef{Warp: uint8(i % 32), Reg: uint8(i % 63)}
	}
	return out
}

func TestPCRFGeometry(t *testing.T) {
	p, err := NewPCRF(1024) // the paper's 128 KB PCRF
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries() != 1024 || p.Free() != 1024 {
		t.Errorf("entries/free = %d/%d, want 1024/1024", p.Entries(), p.Free())
	}
	// Section V-F: 21 tag bits x 1024 entries = 2.15 KB (2688 bytes).
	if got := p.TagOverheadBytes(); got != 2688 {
		t.Errorf("tag overhead = %d bytes, want 2688", got)
	}
	if _, err := NewPCRF(0); err == nil {
		t.Error("zero-entry PCRF should be rejected")
	}
}

func TestPCRFStoreRetrieveChain(t *testing.T) {
	p, _ := NewPCRF(16)
	head, ok := p.StoreChain(refs(5))
	if !ok || head < 0 {
		t.Fatalf("StoreChain failed: head=%d ok=%v", head, ok)
	}
	if p.Free() != 11 {
		t.Errorf("free = %d, want 11", p.Free())
	}
	if n := p.ChainLen(head); n != 5 {
		t.Errorf("ChainLen = %d, want 5", n)
	}
	if n := p.ReleaseChainCount(head); n != 5 {
		t.Fatalf("released %d entries, want 5", n)
	}
	if p.Free() != 16 {
		t.Errorf("free after release = %d, want 16", p.Free())
	}
}

func TestPCRFEmptyChain(t *testing.T) {
	p, _ := NewPCRF(4)
	head, ok := p.StoreChain(nil)
	if !ok || head != -1 {
		t.Errorf("empty store: head=%d ok=%v, want -1/true", head, ok)
	}
	if got := p.ReleaseChainCount(-1); got != 0 {
		t.Errorf("ReleaseChainCount(-1) = %d, want 0", got)
	}
	if got := p.ChainLen(-1); got != 0 {
		t.Errorf("ChainLen(-1) = %d, want 0", got)
	}
}

func TestPCRFCapacityRejection(t *testing.T) {
	p, _ := NewPCRF(4)
	if _, ok := p.StoreChain(refs(5)); ok {
		t.Error("overfull store should fail")
	}
	if p.Free() != 4 {
		t.Error("failed store must not mutate")
	}
	if _, ok := p.StoreChain(refs(4)); !ok {
		t.Error("exact-fit store should succeed")
	}
	if _, ok := p.StoreChain(refs(1)); ok {
		t.Error("store into full PCRF should fail")
	}
}

func TestPCRFInterleavedChains(t *testing.T) {
	p, _ := NewPCRF(32)
	h1, _ := p.StoreChain(refs(10))
	h2, _ := p.StoreChain(refs(12))
	// Release the first chain; the next chain is larger than the space it
	// freed, and fits only with the rest of the file's free entries.
	p.ReleaseChainCount(h1)
	h3, ok := p.StoreChain(refs(15))
	if !ok {
		t.Fatal("store after a release should succeed (15 <= 20 free)")
	}
	if n := p.ChainLen(h3); n != 15 {
		t.Errorf("chain 3 length = %d, want 15", n)
	}
	if got := p.ReleaseChainCount(h2); got != 12 {
		t.Errorf("chain 2 released %d, want 12", got)
	}
	if got := p.ReleaseChainCount(h3); got != 15 {
		t.Errorf("chain 3 released %d, want 15", got)
	}
	if p.Free() != 32 {
		t.Errorf("free = %d, want 32", p.Free())
	}
}

func TestPCRFCounters(t *testing.T) {
	p, _ := NewPCRF(8)
	h, _ := p.StoreChain(refs(3))
	p.ReleaseChainCount(h)
	if p.Writes != 3 || p.Reads != 3 {
		t.Errorf("reads/writes = %d/%d, want 3/3", p.Reads, p.Writes)
	}
	p.Reset()
	if p.Writes != 0 || p.Reads != 0 || p.Free() != 8 {
		t.Error("Reset should clear counters and contents")
	}
}

// Property: arbitrary interleavings of store/release keep the free count
// consistent and every chain's length what was stored.
func TestPCRFChainsQuick(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := NewPCRF(64)
		type chain struct{ head, n int }
		var live []chain
		used := 0
		for op := 0; op < int(opsRaw%40)+10; op++ {
			if rng.Intn(2) == 0 && used < 60 {
				n := 1 + rng.Intn(10)
				head, ok := p.StoreChain(refs(n))
				if ok != (n <= 64-used) {
					return false // must succeed exactly when space suffices
				}
				if ok {
					live = append(live, chain{head, n})
					used += n
				}
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				if p.ReleaseChainCount(live[i].head) != live[i].n {
					return false
				}
				used -= live[i].n
				live = append(live[:i], live[i+1:]...)
			}
			if p.Free() != 64-used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPCRFMatchesCount drives random StoreChain / ReleaseChainCount streams
// against a reference that is nothing but a map from head to chain length:
// after every operation the verdict, the free count, the access counters
// and every stored chain's length must agree, so a refused store must
// change nothing. 1024
// is the paper's file; 7 and 65 are small enough that stores are refused
// constantly.
func TestPCRFMatchesCount(t *testing.T) {
	for _, entries := range []int{1024, 7, 65} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			p, err := NewPCRF(entries)
			if err != nil {
				t.Fatal(err)
			}
			ref := map[int]int{} // head -> chain length
			free := entries
			var reads, writes int64
			var heads []int
			for step := 0; step < 3000; step++ {
				// Hover near full for a while, then near empty.
				storeOdds := 3
				if step/500%2 == 0 {
					storeOdds = 7
				}
				if len(heads) == 0 || r.Intn(10) < storeOdds {
					n := 1 + r.Intn(max(1, entries/8))
					head, ok := p.StoreChain(refs(n))
					if ok != (n <= free) {
						t.Fatalf("%d entries seed %d step %d: StoreChain(%d) ok=%v with %d free", entries, seed, step, n, ok, free)
					}
					if ok {
						if _, dup := ref[head]; dup || head < 0 {
							t.Fatalf("%d entries seed %d step %d: head %d handed out while in use", entries, seed, step, head)
						}
						ref[head] = n
						free -= n
						writes += int64(n)
						heads = append(heads, head)
					}
				} else {
					i := r.Intn(len(heads))
					if got, want := p.ReleaseChainCount(heads[i]), ref[heads[i]]; got != want {
						t.Fatalf("%d entries seed %d step %d: released %d entries, want %d", entries, seed, step, got, want)
					}
					free += ref[heads[i]]
					reads += int64(ref[heads[i]])
					delete(ref, heads[i])
					heads = append(heads[:i], heads[i+1:]...)
				}
				if p.Free() != free || p.Reads != reads || p.Writes != writes {
					t.Fatalf("%d entries seed %d step %d: free/reads/writes %d/%d/%d, reference %d/%d/%d",
						entries, seed, step, p.Free(), p.Reads, p.Writes, free, reads, writes)
				}
				for head, n := range ref {
					if got := p.ChainLen(head); got != n {
						t.Fatalf("%d entries seed %d step %d: chain %d has length %d, reference %d", entries, seed, step, head, got, n)
					}
				}
			}
		}
	}
}

// TestPCRFDoubleReleasePanics: a head already released is refused, by
// ReleaseChainCount and ChainLen alike, rather than freeing its entries a
// second time.
func TestPCRFDoubleReleasePanics(t *testing.T) {
	p, _ := NewPCRF(16)
	head, _ := p.StoreChain(refs(4))
	p.ReleaseChainCount(head)
	for name, op := range map[string]func(){
		"ReleaseChainCount": func() { p.ReleaseChainCount(head) },
		"ChainLen":          func() { p.ChainLen(head) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released head did not panic", name)
				}
			}()
			op()
		}()
	}
	if p.Free() != 16 {
		t.Errorf("free = %d after the refused release, want 16", p.Free())
	}
}

// BenchmarkPCRFStoreRelease is one CTA switch's worth of PCRF work — chain a
// 24-register live set, release another — on a sparse file and on one held
// 90 % full.
func BenchmarkPCRFStoreRelease(b *testing.B) {
	for _, bc := range []struct {
		name string
		held int // entries held by resident chains
	}{{"empty", 0}, {"90pct-full", 920}} {
		b.Run(bc.name, func(b *testing.B) {
			p, _ := NewPCRF(1024)
			r := rand.New(rand.NewSource(1))
			live := refs(24)
			heads := make([]int, max(1, bc.held/len(live)))
			for i := range heads {
				heads[i], _ = p.StoreChain(live)
			}
			// Churn so the released heads are reused out of order, as they
			// are mid-run.
			for i := 0; i < 4*len(heads); i++ {
				j := r.Intn(len(heads))
				p.ReleaseChainCount(heads[j])
				heads[j], _ = p.StoreChain(live)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(heads)
				p.ReleaseChainCount(heads[j])
				heads[j], _ = p.StoreChain(live)
			}
		})
	}
}
