package sm

// Ledger is a policy's account of one register partition, in warp-registers:
// a capacity and how much of it is still unallocated. The policy Takes a
// CTA's charge when it admits the CTA into the partition and Gives it back
// when the CTA leaves; deciding whether a charge fits (Free) is the policy's
// business, so a deliberate overdraft is a Take past zero. The audit identity
// free == capacity - held follows from the declaration: Account pairs the
// running count with the held amount the policy recomputes from the resident
// set.
type Ledger struct {
	capacity, free int
}

// Reset empties the partition and sets its capacity (KernelStart).
func (l *Ledger) Reset(capacity int) { l.capacity, l.free = capacity, capacity }

// Capacity returns the partition's size.
func (l *Ledger) Capacity() int { return l.capacity }

// Free returns the unallocated warp-registers.
func (l *Ledger) Free() int { return l.free }

// Take charges n warp-registers to the partition.
func (l *Ledger) Take(n int) { l.free -= n }

// Give returns n warp-registers to the partition.
func (l *Ledger) Give(n int) { l.free += n }

// Account is the ledger's audit account under the given rule name: held is
// what the residents occupy in the partition, recomputed by the caller.
func (l *Ledger) Account(name string, held int) AuditAccount {
	return AuditAccount{Name: name, Value: l.free, Expected: l.capacity - held, Min: 0, Max: l.capacity}
}
