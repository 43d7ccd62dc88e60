// Package core implements the paper's primary contribution: the FineReg
// register-file organization and management. It contains
//
//   - the pending-CTA register file (PCRF) with its chained tag structure
//     (Figure 11): per-entry valid/end bits, next-register pointer, warp ID
//     and register index, plus the free-space monitor;
//   - the register management unit (RMU, Figure 10) with its 32-entry
//     direct-mapped live-register bit-vector cache;
//   - the CTA status monitor (Table IV) tracking context and register
//     location per resident CTA;
//   - the FineReg scheduling policy that splits the register file into
//     ACRF and PCRF and performs live-register-only CTA switching.
package core

import (
	"fmt"
	"math/bits"
)

// RegRef identifies one live warp-register: which warp of the CTA and
// which architectural register.
type RegRef struct {
	Warp uint8
	Reg  uint8
}

// pcrfTag is the per-entry tag of Figure 11: valid and end bits, the
// next-register pointer (10 bits in hardware), warp ID (5 bits) and
// register index (6 bits) — 21 tag bits tracked here with natural Go
// types.
type pcrfTag struct {
	valid bool
	end   bool
	next  uint16
	ref   RegRef
}

// PCRF is the pending-CTA register file: a pool of 128-byte register
// entries in which each pending CTA's live registers are stored as a
// linked chain. The free-space monitor is the paper's 1-bit-per-entry array
// plus its zero counter.
type PCRF struct {
	tags []pcrfTag
	// freeBits is the free-space monitor: bit i is set exactly when entry i
	// is unoccupied (!tags[i].valid); bits past the last entry stay clear.
	// free is its popcount.
	freeBits []uint64
	free     int
	// cursor is a rotating allocation pointer so chains spread over the
	// structure the way a hardware free-list would.
	cursor int

	// Reads and Writes count register-entry accesses (128 B each).
	Reads, Writes int64
}

// NewPCRF builds a PCRF with the given number of 128-byte entries
// (sizeBytes/128; the paper's 128 KB PCRF has 1024).
func NewPCRF(entries int) (*PCRF, error) {
	if entries < 1 {
		return nil, fmt.Errorf("core: PCRF needs at least 1 entry, got %d", entries)
	}
	p := &PCRF{tags: make([]pcrfTag, entries), freeBits: make([]uint64, (entries+63)/64)}
	p.Reset()
	return p, nil
}

// Entries returns the PCRF capacity.
func (p *PCRF) Entries() int { return len(p.tags) }

// Free returns the number of unoccupied entries — the free-space monitor's
// zero count.
func (p *PCRF) Free() int { return p.free }

// Reset invalidates all entries.
func (p *PCRF) Reset() {
	clear(p.tags)
	for i := range p.freeBits {
		p.freeBits[i] = ^uint64(0)
	}
	if tail := len(p.tags) & 63; tail != 0 {
		p.freeBits[len(p.freeBits)-1] = 1<<tail - 1
	}
	p.free = len(p.tags)
	p.cursor = 0
	p.Reads, p.Writes = 0, 0
}

// StoreChain writes the live registers of a CTA into free entries, linking
// them with next pointers and marking the last with the end bit. It
// returns the head index (the PCRF pointer table entry). Storing nothing
// returns head -1, ok. Fails (ok=false, no mutation) when free space is
// insufficient.
func (p *PCRF) StoreChain(refs []RegRef) (head int, ok bool) {
	if len(refs) == 0 {
		return -1, true
	}
	if len(refs) > p.free {
		return -1, false
	}
	prev := -1
	head = -1
	for _, ref := range refs {
		slot := p.alloc()
		p.tags[slot] = pcrfTag{valid: true, end: true, ref: ref}
		p.Writes++
		if prev >= 0 {
			p.tags[prev].next = uint16(slot)
			p.tags[prev].end = false
		} else {
			head = slot
		}
		prev = slot
	}
	return head, true
}

// alloc takes the first free slot at or after cursor, wrapping past the
// last entry; the caller guaranteed availability.
func (p *PCRF) alloc() int {
	i := p.cursor >> 6
	// The cursor's word is looked at twice: from the cursor up now, and
	// below the cursor after every other word has been.
	word := p.freeBits[i] &^ (1<<(p.cursor&63) - 1)
	for n := 0; word == 0; n++ {
		if n == len(p.freeBits) {
			panic("core: PCRF alloc with no free entries")
		}
		if i++; i == len(p.freeBits) {
			i = 0
		}
		word = p.freeBits[i]
	}
	slot := i<<6 + bits.TrailingZeros64(word)
	p.freeBits[i] &^= 1 << (slot & 63)
	p.free--
	if p.cursor = slot + 1; p.cursor == len(p.tags) {
		p.cursor = 0
	}
	return slot
}

// release invalidates entry slot of a chain being walked out of the file
// and returns its tag as it was.
func (p *PCRF) release(slot int) pcrfTag {
	t := p.tags[slot]
	if !t.valid {
		panic(fmt.Sprintf("core: PCRF chain hits invalid entry %d", slot))
	}
	p.tags[slot].valid = false
	p.freeBits[slot>>6] |= 1 << (slot & 63)
	p.free++
	p.Reads++
	return t
}

// ReleaseChain walks a chain from head (restoring its registers to the
// ACRF), invalidating each entry, and returns the registers in chain
// order. A head of -1 (empty chain) returns nil.
func (p *PCRF) ReleaseChain(head int) []RegRef {
	if head < 0 {
		return nil
	}
	var refs []RegRef
	slot := head
	for {
		t := p.release(slot)
		refs = append(refs, t.ref)
		if t.end {
			return refs
		}
		slot = int(t.next)
	}
}

// ReleaseChainCount walks and invalidates a chain exactly like
// ReleaseChain but returns only its length — the hot-path variant for the
// restore paths, which account transfers by count and never look at the
// individual registers.
func (p *PCRF) ReleaseChainCount(head int) int {
	if head < 0 {
		return 0
	}
	n := 0
	slot := head
	for {
		t := p.release(slot)
		n++
		if t.end {
			return n
		}
		slot = int(t.next)
	}
}

// FreeBitmapSkew counts the entries on which the free-space monitor
// disagrees with the tag array (bit set ⇔ entry invalid), plus the
// difference between its popcount and the free counter — 0 on a consistent
// file. The auditor's pcrf:freeBitmap account.
func (p *PCRF) FreeBitmapSkew() int {
	skew, set := 0, 0
	for slot := 0; slot < len(p.freeBits)*64; slot++ {
		bit := p.freeBits[slot>>6]>>(slot&63)&1 == 1
		if bit {
			set++
		}
		if bit != (slot < len(p.tags) && !p.tags[slot].valid) {
			skew++
		}
	}
	return skew + max(set-p.free, p.free-set)
}

// ChainLen walks a chain without mutating it and returns its length.
func (p *PCRF) ChainLen(head int) int {
	if head < 0 {
		return 0
	}
	n := 0
	slot := head
	for {
		t := &p.tags[slot]
		if !t.valid {
			panic(fmt.Sprintf("core: PCRF chain hits invalid entry %d", slot))
		}
		n++
		if t.end {
			return n
		}
		slot = int(t.next)
	}
}

// TagOverheadBytes returns the SRAM cost of the tag array: 21 bits per
// entry (paper Section V-F: 2.15 KB for 1024 entries).
func (p *PCRF) TagOverheadBytes() int { return len(p.tags) * 21 / 8 }
