// Package core implements the paper's primary contribution: the FineReg
// register-file organization and management. It contains
//
//   - the pending-CTA register file (PCRF, Figure 11), modelled by what the
//     timing reads from it: its capacity, the free-space monitor's count of
//     free entries, and the length of each pending CTA's register chain (the
//     per-entry tag layout enters only the Section V-F area arithmetic);
//   - the register management unit (RMU, Figure 10) with its 32-entry
//     direct-mapped live-register bit-vector cache;
//   - the CTA status monitor (Table IV) tracking context and register
//     location per resident CTA;
//   - the FineReg scheduling policy that splits the register file into
//     ACRF and PCRF and performs live-register-only CTA switching.
package core

import "fmt"

// RegRef identifies one live warp-register: which warp of the CTA and
// which architectural register.
type RegRef struct {
	Warp uint8
	Reg  uint8
}

// PCRF is the pending-CTA register file: a pool of 128-byte register
// entries in which each pending CTA's live registers are stored as one
// chain. Which entries a chain occupies is never observed — admission reads
// the free-space monitor's count and a restore reads the chain's length — so
// the file keeps those two numbers and nothing else.
type PCRF struct {
	entries int
	free    int
	// lens[head] is the length of the chain stored at head, 0 once it has
	// been released; spare holds released heads for reuse.
	lens  []int
	spare []int

	// Reads and Writes count register-entry accesses (128 B each).
	Reads, Writes int64
}

// NewPCRF builds a PCRF with the given number of 128-byte entries
// (sizeBytes/128; the paper's 128 KB PCRF has 1024).
func NewPCRF(entries int) (*PCRF, error) {
	if entries < 1 {
		return nil, fmt.Errorf("core: PCRF needs at least 1 entry, got %d", entries)
	}
	p := &PCRF{entries: entries}
	p.Reset()
	return p, nil
}

// Entries returns the PCRF capacity.
func (p *PCRF) Entries() int { return p.entries }

// Free returns the number of unoccupied entries — the free-space monitor's
// zero count.
func (p *PCRF) Free() int { return p.free }

// Reset invalidates all entries.
func (p *PCRF) Reset() {
	p.lens, p.spare = p.lens[:0], p.spare[:0]
	p.free = p.entries
	p.Reads, p.Writes = 0, 0
}

// StoreChain writes the live registers of a CTA into free entries as one
// chain and returns its head (the PCRF pointer table entry). Storing
// nothing returns head -1, ok. Fails (ok=false, no mutation) when free
// space is insufficient.
func (p *PCRF) StoreChain(refs []RegRef) (head int, ok bool) {
	return p.store(len(refs))
}

// store is StoreChain for a chain of n registers.
func (p *PCRF) store(n int) (head int, ok bool) {
	if n == 0 {
		return -1, true
	}
	if n > p.free {
		return -1, false
	}
	if last := len(p.spare) - 1; last >= 0 {
		head, p.spare = p.spare[last], p.spare[:last]
		p.lens[head] = n
	} else {
		head = len(p.lens)
		p.lens = append(p.lens, n)
	}
	p.free -= n
	p.Writes += int64(n)
	return head, true
}

// ReleaseChainCount reads a chain out of the file (restoring its registers
// to the ACRF), frees its entries and returns its length. A head of -1
// (empty chain) returns 0; a head already released panics.
func (p *PCRF) ReleaseChainCount(head int) int {
	n := p.ChainLen(head)
	if n > 0 {
		p.lens[head] = 0
		p.spare = append(p.spare, head)
		p.free += n
		p.Reads += int64(n)
	}
	return n
}

// ChainLen returns the length of the chain at head without releasing it.
// A head of -1 returns 0; a head already released panics.
func (p *PCRF) ChainLen(head int) int {
	if head < 0 {
		return 0
	}
	n := p.lens[head]
	if n == 0 {
		panic(fmt.Sprintf("core: PCRF chain %d already released", head))
	}
	return n
}

// TagOverheadBytes returns the SRAM cost of the tag array: 21 bits per
// entry — valid and end bits, a 10-bit next-register pointer, a 5-bit warp
// ID and a 6-bit register index (paper Section V-F: 2.15 KB for 1024
// entries).
func (p *PCRF) TagOverheadBytes() int { return p.entries * 21 / 8 }
