package sm

import (
	"fmt"
	"math/bits"
)

// This file is the SM's auditing surface: read-only accessors over the
// private residency/scheduler state that internal/audit re-derives from
// first principles, the policy-side self-auditing interface, and a test
// hook for deliberately corrupting a counter to prove the auditor catches
// drift. None of it is used on the simulation hot path.

// AuditAccount is one policy-maintained resource counter paired with its
// ground truth: Value is what the policy's incremental bookkeeping says,
// Expected is the same quantity recomputed from the resident set, and
// [Min, Max] is the legal range (capacity bounds). The auditor flags any
// account where Value != Expected or Value leaves the range.
type AuditAccount struct {
	// Name identifies the counter in violation reports (e.g. "regsFree").
	Name string
	// Value is the policy's incrementally maintained count.
	Value int
	// Expected is the count recomputed from the resident set.
	Expected int
	// Min and Max bound the legal range (typically 0 and the capacity).
	// Policies with deliberate oversubscription (RegMutex's emergency SRP
	// overdraft) widen Min accordingly.
	Min, Max int
}

// SelfAuditing is implemented by policies that expose their register
// accounting to the auditor. The implementation must be read-only and may
// assume it runs between Tick rounds (no transient mid-issue state).
type SelfAuditing interface {
	// AuditAccounting returns every resource account the policy maintains,
	// with ground truth recomputed from s's resident set.
	AuditAccounting(s *SM) []AuditAccount
}

// ---- State accessors (auditor-facing, read-only) ----

// WarpsUsed returns the warp scheduling slots occupied by active CTAs'
// non-exited warps.
func (s *SM) WarpsUsed() int { return s.warpsUsed }

// ThreadsUsed returns the thread slots occupied (32 per used warp slot).
func (s *SM) ThreadsUsed() int { return s.threadsUsed }

// SharedMemUsed returns the shared-memory bytes held by resident CTAs.
func (s *SM) SharedMemUsed() int { return s.shmemUsed }

// AwakeWarps returns the SM's awake counter: active, non-exited warps with
// wakeAt <= now.
func (s *SM) AwakeWarps() int { return s.awake }

// EachSchedulerWarp visits every warp currently wired into a scheduler, in
// scheduler then slot order (tombstones awaiting compaction are skipped).
func (s *SM) EachSchedulerWarp(visit func(sid int, w *Warp)) {
	for sid, ws := range s.schedWarps {
		for _, w := range ws {
			if w != nil {
				visit(sid, w)
			}
		}
	}
}

// EachReadyWarp visits the warp behind every set bit of the schedulers'
// ready masks, in scheduler then position order — the exact issue-candidate
// set pick/pickLRR scan. w is nil for a bit that stands for no wired warp (a
// tombstone, or a position past the end of the list).
func (s *SM) EachReadyWarp(visit func(sid int, w *Warp)) {
	for sid, mask := range s.readyMask {
		for i, word := range mask {
			for ; word != 0; word &= word - 1 {
				var w *Warp
				if p := i<<6 + bits.TrailingZeros64(word); p < len(s.schedWarps[sid]) {
					w = s.schedWarps[sid][p]
				}
				visit(sid, w)
			}
		}
	}
}

// EachEventWarp visits every registered wake-up — the wake ring's set bits
// that stand for a wired warp, then the queue's wake events — with the cycle
// it is due. The ring's slots are read as the cycles now … now+wakeHorizon-1.
func (s *SM) EachEventWarp(now int64, visit func(w *Warp, at int64)) {
	for d := range int64(wakeHorizon) {
		for sid, ws := range s.schedWarps {
			for i, word := range s.ringWords(int(now+d)&(wakeHorizon-1), sid) {
				for ; word != 0; word &= word - 1 {
					if p := i<<6 + bits.TrailingZeros64(word); p < len(ws) && ws[p] != nil {
						visit(ws[p], now+d)
					}
				}
			}
		}
	}
	for _, e := range s.events {
		if e.warp != nil {
			visit(e.warp, e.key>>1)
		}
	}
}

// Retired reports whether the warp context sits in its SM's pool: its CTA
// finished and no launch has re-armed it yet.
func (w *Warp) Retired() bool { return w.CTA == nil }

// KernelBound reports whether BindKernel has run (the auditor needs the
// program metadata for shared-memory ground truth).
func (s *SM) KernelBound() bool { return s.meta != nil }

// Asleep reports whether the warp is descheduled waiting on an event.
func (w *Warp) Asleep() bool { return w.asleep }

// SchedSeq returns the warp's wiring sequence within its scheduler (the
// order of the scheduler lists and so of the ready masks' bits, and LRR's
// rotation anchor).
func (w *Warp) SchedSeq() int64 { return w.schedSeq }

// AtBarrier reports whether the warp is parked at a CTA-wide barrier.
func (w *Warp) AtBarrier() bool { return w.atBarrier }

// LongBlocked reports whether the warp counts toward its CTA's stalled-warp
// total (a block of at least Config.LongStall cycles).
func (w *Warp) LongBlocked() bool { return w.longBlocked }

// UntrackedPending returns a register whose value is still in flight at
// cycle now (regReady > now) but whose bit is missing from the warp's busy
// mask, or -1 when busy covers every pending register — the invariant that
// lets depReadyAt trust a clear bit without reading regReady.
func (w *Warp) UntrackedPending(now int64) int {
	for r, at := range w.regReady {
		if int64(at) > now && w.busy&(1<<r) == 0 {
			return r
		}
	}
	return -1
}

// StalledWarps returns the CTA's long-blocked warp count.
func (c *CTA) StalledWarps() int { return c.stalledWarps }

// BarWaiting returns how many warps are parked at the CTA's barrier.
func (c *CTA) BarWaiting() int { return c.barWaiting }

// FinishedWarps returns how many of the CTA's warps have exited.
func (c *CTA) FinishedWarps() int { return c.finishedWarps }

// ---- Fault injection (tests only) ----

// InjectAccountingSkew corrupts one of the SM's occupancy counters by
// delta. It exists solely so tests can prove the auditor detects
// bookkeeping drift (the "skipped warpsUsed--" class of bug); it has no
// other callers. Unknown counter names panic.
func (s *SM) InjectAccountingSkew(counter string, delta int) {
	switch counter {
	case "warpsUsed":
		s.warpsUsed += delta
	case "threadsUsed":
		s.threadsUsed += delta
	case "shmemUsed":
		s.shmemUsed += delta
	case "awake":
		s.awake += delta
	case "activeCTAs":
		s.activeCTAs += delta
	case "pendingCTAs":
		s.pendingCTAs += delta
	default:
		panic(fmt.Sprintf("sm: InjectAccountingSkew: unknown counter %q", counter))
	}
}

// InjectResidentSwap exchanges the first two residents, breaking the
// ascending-ID order ReadyPending and StalledActive rest on. Returns false
// with fewer than two residents. Tests only.
func (s *SM) InjectResidentSwap() bool {
	if len(s.residents) < 2 {
		return false
	}
	s.residents[0], s.residents[1] = s.residents[1], s.residents[0]
	return true
}

// InjectMemSkew corrupts one of the SM's L1 probe counters by delta
// (delegates to mem.Cache.InjectAuditSkew). Tests only: it proves the
// auditor's memory-hierarchy conservation checks catch cache-accounting
// drift.
func (s *SM) InjectMemSkew(counter string, delta int64) {
	s.L1.InjectAuditSkew(counter, delta)
}

// InjectReadySkew corrupts the ready masks by clearing the lowest set bit
// of the first non-empty one (simulating a missed readyAdd — the bug class
// where a woken warp never becomes an issue candidate). Returns false when
// every mask is empty. Tests only.
func (s *SM) InjectReadySkew() bool {
	for _, mask := range s.readyMask {
		for i, word := range mask {
			if word != 0 {
				mask[i] = word & (word - 1)
				return true
			}
		}
	}
	return false
}

// InjectRetiredEvent schedules a wake event for a pooled warp context
// (simulating an event that outlives its warp: once the context is re-armed
// for another CTA, the stale event would wake the wrong warp). Returns false
// when the pool is empty. Tests only.
func (s *SM) InjectRetiredEvent(at int64) bool {
	for _, pool := range [][]*Warp{s.warpFree, s.warpRetired} {
		if len(pool) > 0 {
			s.events.push(event{key: at << 1, warp: pool[0]})
			return true
		}
	}
	return false
}

// InjectLostWake moves the wake time of one sleeping warp a cycle past its
// registered wake-up, which will then find the warp not yet due — and no
// other comes: the warp sleeps forever, as after a block that registered
// nothing. Returns false when no wired warp is waiting on a wake-up. Tests
// only.
func (s *SM) InjectLostWake() bool {
	for _, ws := range s.schedWarps {
		for _, w := range ws {
			if w != nil && w.asleep && !w.atBarrier {
				w.wakeAt++
				return true
			}
		}
	}
	return false
}

// InjectQueueOnlyWakes routes every wake-up registered from now on through
// the queue, leaving the wake ring unused: the ring is an implementation of
// the order the queue's sort key spells out, so no simulated number may move.
// Call before BindKernel. Tests only.
func (s *SM) InjectQueueOnlyWakes() { s.wakeSpan = 0 }

// InjectScrambledWakes is InjectQueueOnlyWakes with the push sequence of
// wake events scrambled (multiplied by an odd constant: still unique), so
// wake-ups due in the same cycle are delivered in an arbitrary order. They
// commute, so no simulated number may move. Tests only.
func (s *SM) InjectScrambledWakes() { s.wakeSpan, s.wakeMul = 0, 0x9e3779b97f4a7c15 }

// InjectBusySkew clears the busy bit of one register that is still pending
// at cycle now on some resident, non-exited warp (simulating an issue path
// that wrote regReady without marking the register busy — the warp would
// then issue a dependent instruction early). Returns false when no
// register is in flight. Tests only.
func (s *SM) InjectBusySkew(now int64) bool {
	for _, c := range s.residents {
		for _, w := range c.Warps {
			if w.exited {
				continue
			}
			for r, at := range w.regReady {
				if int64(at) > now && w.busy&(1<<r) != 0 {
					w.busy &^= 1 << r
					return true
				}
			}
		}
	}
	return false
}
