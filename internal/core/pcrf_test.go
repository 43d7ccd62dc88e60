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
	in := refs(5)
	head, ok := p.StoreChain(in)
	if !ok || head < 0 {
		t.Fatalf("StoreChain failed: head=%d ok=%v", head, ok)
	}
	if p.Free() != 11 {
		t.Errorf("free = %d, want 11", p.Free())
	}
	if n := p.ChainLen(head); n != 5 {
		t.Errorf("ChainLen = %d, want 5", n)
	}
	out := p.ReleaseChain(head)
	if len(out) != 5 {
		t.Fatalf("released %d refs, want 5", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("chain order broken at %d: got %v want %v", i, out[i], in[i])
		}
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
	if got := p.ReleaseChain(-1); got != nil {
		t.Errorf("ReleaseChain(-1) = %v, want nil", got)
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
	// Release the first chain; its slots fragment the free space, so the
	// next chain must thread through non-contiguous entries.
	p.ReleaseChain(h1)
	h3, ok := p.StoreChain(refs(15))
	if !ok {
		t.Fatal("fragmented store should still succeed (15 <= 20 free)")
	}
	if n := p.ChainLen(h3); n != 15 {
		t.Errorf("fragmented chain length = %d, want 15", n)
	}
	if got := len(p.ReleaseChain(h2)); got != 12 {
		t.Errorf("chain 2 released %d, want 12", got)
	}
	if got := len(p.ReleaseChain(h3)); got != 15 {
		t.Errorf("chain 3 released %d, want 15", got)
	}
	if p.Free() != 32 {
		t.Errorf("free = %d, want 32", p.Free())
	}
}

func TestPCRFCounters(t *testing.T) {
	p, _ := NewPCRF(8)
	h, _ := p.StoreChain(refs(3))
	p.ReleaseChain(h)
	if p.Writes != 3 || p.Reads != 3 {
		t.Errorf("reads/writes = %d/%d, want 3/3", p.Reads, p.Writes)
	}
	p.Reset()
	if p.Writes != 0 || p.Reads != 0 || p.Free() != 8 {
		t.Error("Reset should clear counters and contents")
	}
}

// Property: arbitrary interleavings of store/release keep free-count
// consistent and chains intact (round-trip exactly what was stored).
func TestPCRFChainsQuick(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := NewPCRF(64)
		type chain struct {
			head int
			data []RegRef
		}
		var live []chain
		used := 0
		for op := 0; op < int(opsRaw%40)+10; op++ {
			if rng.Intn(2) == 0 && used < 60 {
				n := 1 + rng.Intn(10)
				data := make([]RegRef, n)
				for i := range data {
					data[i] = RegRef{Warp: uint8(rng.Intn(32)), Reg: uint8(rng.Intn(64))}
				}
				head, ok := p.StoreChain(data)
				if n <= p.Free()+n && !ok && n <= 64-used {
					return false // must succeed when space suffices
				}
				if ok {
					live = append(live, chain{head, data})
					used += n
				}
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				c := live[i]
				got := p.ReleaseChain(c.head)
				if len(got) != len(c.data) {
					return false
				}
				for j := range got {
					if got[j] != c.data[j] {
						return false
					}
				}
				used -= len(c.data)
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

// refPCRF is the allocator the free bitmap replaced, kept as the reference:
// a rotating linear scan of the valid bits from the cursor.
type refPCRF struct {
	valid  []bool
	next   []int
	end    []bool
	free   int
	cursor int
}

func (p *refPCRF) alloc() int {
	for i := 0; i < len(p.valid); i++ {
		slot := (p.cursor + i) % len(p.valid)
		if !p.valid[slot] {
			p.cursor = (slot + 1) % len(p.valid)
			p.free--
			return slot
		}
	}
	panic("reference PCRF alloc with no free entries")
}

// store returns the slots of a chain of n registers, in chain order.
func (p *refPCRF) store(n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = p.alloc()
		p.valid[slots[i]], p.end[slots[i]] = true, true
		if i > 0 {
			p.next[slots[i-1]], p.end[slots[i-1]] = slots[i], false
		}
	}
	return slots
}

func (p *refPCRF) release(head int) int {
	for n, slot := 1, head; ; n, slot = n+1, p.next[slot] {
		p.valid[slot] = false
		p.free++
		if p.end[slot] {
			return n
		}
	}
}

// TestPCRFAllocMatchesLinearScan drives random StoreChain /
// ReleaseChainCount streams through the bitmap allocator and the linear
// scan side by side: every chain must land in the same slots, and the free
// count, the cursor and the bitmap itself must agree after every operation.
// 1024 is the paper's file; 7 fits in a fraction of one bitmap word and 65
// puts a single entry in the second, so the wrap and the word boundary are
// both crossed constantly.
func TestPCRFAllocMatchesLinearScan(t *testing.T) {
	for _, entries := range []int{1024, 7, 65} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			p, err := NewPCRF(entries)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refPCRF{valid: make([]bool, entries), next: make([]int, entries),
				end: make([]bool, entries), free: entries}
			var heads []int
			for step := 0; step < 3000; step++ {
				// Hover near full for a while, then near empty: the linear
				// scan's long walks happen when free entries are scarce.
				storeOdds := 3
				if step/500%2 == 0 {
					storeOdds = 7
				}
				if len(heads) == 0 || r.Intn(10) < storeOdds {
					n := 1 + r.Intn(max(1, entries/8))
					head, ok := p.StoreChain(refs(n))
					if ok != (n <= ref.free) {
						t.Fatalf("%d entries seed %d step %d: StoreChain(%d) ok=%v with %d free", entries, seed, step, n, ok, ref.free)
					}
					if ok {
						want := ref.store(n)
						if head != want[0] {
							t.Fatalf("%d entries seed %d step %d: chain head %d, linear scan gives %d", entries, seed, step, head, want[0])
						}
						for i, slot := 0, head; ; i, slot = i+1, int(p.tags[slot].next) {
							if slot != want[i] {
								t.Fatalf("%d entries seed %d step %d: chain entry %d in slot %d, linear scan gives %d",
									entries, seed, step, i, slot, want[i])
							}
							if p.tags[slot].end {
								break
							}
						}
						heads = append(heads, head)
					}
				} else {
					i := r.Intn(len(heads))
					if got, want := p.ReleaseChainCount(heads[i]), ref.release(heads[i]); got != want {
						t.Fatalf("%d entries seed %d step %d: released %d entries, want %d", entries, seed, step, got, want)
					}
					heads = append(heads[:i], heads[i+1:]...)
				}
				if p.free != ref.free || p.cursor != ref.cursor {
					t.Fatalf("%d entries seed %d step %d: free/cursor %d/%d, linear scan has %d/%d",
						entries, seed, step, p.free, p.cursor, ref.free, ref.cursor)
				}
				if skew := p.FreeBitmapSkew(); skew != 0 {
					t.Fatalf("%d entries seed %d step %d: free bitmap disagrees with the tags on %d entries", entries, seed, step, skew)
				}
			}
		}
	}
}

// TestFreeBitmapSkewCounts: the auditor's account must see a lost bit, a
// stray bit and a bit past the last entry.
func TestFreeBitmapSkewCounts(t *testing.T) {
	p, _ := NewPCRF(65)
	head, _ := p.StoreChain(refs(3))
	if skew := p.FreeBitmapSkew(); skew != 0 {
		t.Fatalf("clean file reports skew %d", skew)
	}
	p.freeBits[0] |= 1 << head // occupied entry marked free
	if skew := p.FreeBitmapSkew(); skew == 0 {
		t.Error("stray free bit not seen")
	}
	p.freeBits[0] &^= 1 << head
	p.freeBits[1] |= 1 << 5 // entry 69 of a 65-entry file
	if skew := p.FreeBitmapSkew(); skew == 0 {
		t.Error("free bit past the last entry not seen")
	}
	p.freeBits[1] &^= 1 << 5
	p.freeBits[0] &^= 1 << 40 // free entry lost to the allocator
	if skew := p.FreeBitmapSkew(); skew == 0 {
		t.Error("lost free bit not seen")
	}
}

// BenchmarkPCRFStoreRelease is one CTA switch's worth of PCRF work — chain a
// 24-register live set, release another — on a sparse file and on one held
// 90 % full, where free entries are scattered and the linear scan walked
// past hundreds of occupied ones per allocation.
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
			// Churn so the free entries are scattered, as they are mid-run.
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
