package mem

import "math"

// TrafficClass labels off-chip transfers for the Figure 15 breakdown.
type TrafficClass uint8

const (
	// TrafficDemand is ordinary load/store traffic.
	TrafficDemand TrafficClass = iota
	// TrafficContext is CTA register context moved to/from DRAM by the
	// Reg+DRAM (Zorua-like) policy.
	TrafficContext
	// TrafficBitvec is FineReg's live-register bit-vector fetches.
	TrafficBitvec
	numTrafficClasses
)

// DRAM models the off-chip channel: every transfer pays LatencyCycles and
// occupies the channel for bytes/BytesPerCycle cycles; concurrent requests
// serialize behind nextFree (a single-queue bandwidth model).
type DRAM struct {
	// LatencyCycles is the unloaded access latency.
	LatencyCycles int64
	// BytesPerCycle is the channel bandwidth (Table I: 352.5 GB/s at
	// 1126 MHz ≈ 313 B/cycle).
	BytesPerCycle float64

	nextFree float64
	bytes    [numTrafficClasses]int64

	// accesses and gross count transfers and total bytes independently of
	// the per-class ledger, so gross == Σ bytes[class] is a conservation
	// invariant (a transfer booked to the wrong place, or a ledger entry
	// mutated outside Access, breaks it).
	accesses int64
	gross    int64
}

// Access schedules a transfer of the given size issued at cycle now and
// returns its completion cycle. Traffic is accounted to class.
func (d *DRAM) Access(now int64, bytes int, class TrafficClass) int64 {
	d.bytes[class] += int64(bytes)
	d.accesses++
	d.gross += int64(bytes)
	start := float64(now)
	if d.nextFree > start {
		start = d.nextFree
	}
	service := float64(bytes) / d.BytesPerCycle
	d.nextFree = start + service
	// Round the completion cycle up: a transfer occupying any fraction of a
	// cycle is not done until that cycle ends. Truncation let sub-cycle
	// transfers finish up to a cycle early (nextFree keeps the exact
	// fractional time so back-to-back backlog accounting stays precise).
	return int64(math.Ceil(start+service)) + d.LatencyCycles
}

// QueueDelay returns how long a request issued now would wait for the
// channel (the bandwidth queue's backlog).
func (d *DRAM) QueueDelay(now int64) float64 {
	w := d.nextFree - float64(now)
	if w < 0 {
		return 0
	}
	return w
}

// Bytes returns the transferred bytes of one traffic class.
func (d *DRAM) Bytes(class TrafficClass) int64 { return d.bytes[class] }

// TotalBytes returns all off-chip traffic.
func (d *DRAM) TotalBytes() int64 {
	var t int64
	for _, b := range d.bytes {
		t += b
	}
	return t
}

// Accesses returns how many transfers the channel has serviced.
func (d *DRAM) Accesses() int64 { return d.accesses }

// GrossBytes returns total transferred bytes counted independently of the
// per-class ledger; internal/audit checks it against TotalBytes.
func (d *DRAM) GrossBytes() int64 { return d.gross }

// InjectLedgerSkew corrupts one traffic class's ledger entry by delta
// without touching the gross counter. Tests only: it lets mutation tests
// prove the auditor detects ledger drift.
func (d *DRAM) InjectLedgerSkew(class TrafficClass, delta int64) {
	d.bytes[class] += delta
}

// Utilization returns channel-busy cycles divided by elapsed cycles.
func (d *DRAM) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	busy := float64(d.TotalBytes()) / d.BytesPerCycle
	u := busy / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
