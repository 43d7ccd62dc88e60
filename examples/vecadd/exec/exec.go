// Package exec is a functional SIMT executor for the finereg ISA. It runs
// programs for real — per-lane register files, byte-addressed global and
// shared memory, and a PDOM reconvergence stack for divergent control flow
// (the same post-dominator analysis the compiler pass uses).
//
// The executor exists to demonstrate that the ISA and its programs are
// semantically meaningful, and to back the runnable examples; the timing
// simulator (internal/sm, internal/gpu) models performance separately.
package exec

import (
	"errors"
	"fmt"
	"math"

	"finereg/internal/isa"
	"finereg/internal/liveness"
)

// WarpSize is the SIMD width (lanes per warp).
const WarpSize = 32

// fullMask has all 32 lanes active.
const fullMask = uint32(0xFFFFFFFF)

// ErrExec wraps all runtime execution errors.
var ErrExec = errors.New("exec: runtime error")

func execErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrExec, fmt.Sprintf(format, args...))
}

// Machine executes kernels against a flat global memory.
type Machine struct {
	// Mem is global memory; all LDG/STG addresses index into it.
	Mem []byte
	// SharedBytes is the shared memory allocated per CTA.
	SharedBytes int
	// MaxSteps bounds per-warp dynamic instructions (guards against
	// non-terminating programs). Zero means the 1M default.
	MaxSteps int
}

// Launch runs the program over a grid of gridCTAs CTAs of threadsPerCTA
// threads. By convention R0 of every thread is preloaded with its global
// thread ID. Warps within a CTA execute in barrier-delimited phases, so
// OpBAR works for producer/consumer shared-memory patterns.
func (m *Machine) Launch(p *isa.Program, gridCTAs, threadsPerCTA int) error {
	if err := isa.Validate(p); err != nil {
		return err
	}
	if threadsPerCTA <= 0 || threadsPerCTA%WarpSize != 0 {
		return execErrf("threadsPerCTA %d must be a positive multiple of %d", threadsPerCTA, WarpSize)
	}
	g, err := liveness.BuildCFG(p)
	if err != nil {
		return err
	}
	reconv := reconvergenceTable(g)
	warpsPerCTA := threadsPerCTA / WarpSize
	for cta := 0; cta < gridCTAs; cta++ {
		shared := make([]byte, m.SharedBytes)
		warps := make([]*warpCtx, warpsPerCTA)
		for w := range warps {
			warps[w] = newWarpCtx(p, cta*threadsPerCTA+w*WarpSize)
		}
		if err := m.runCTA(p, reconv, warps, shared); err != nil {
			return fmt.Errorf("cta %d: %w", cta, err)
		}
	}
	return nil
}

// runCTA executes all warps of a CTA in rounds: each warp runs until it
// reaches a barrier or exits; a barrier releases when every live warp has
// arrived.
func (m *Machine) runCTA(p *isa.Program, reconv []int, warps []*warpCtx, shared []byte) error {
	for {
		alive, arrived := 0, 0
		for _, w := range warps {
			if w.done {
				continue
			}
			alive++
			if !w.atBarrier {
				if err := m.runWarp(p, reconv, w, shared); err != nil {
					return err
				}
				if w.done {
					alive--
					continue
				}
			}
			if w.atBarrier {
				arrived++
			}
		}
		if alive == 0 {
			return nil
		}
		if arrived == alive {
			for _, w := range warps {
				w.atBarrier = false
			}
			continue
		}
		if arrived < alive {
			// Some warp neither finished nor reached the barrier: runWarp
			// only returns on barrier/exit, so this is unreachable unless
			// a warp deadlocks on a malformed program.
			return execErrf("barrier deadlock: %d/%d warps arrived", arrived, alive)
		}
	}
}

// warpCtx is the architectural state of one warp.
type warpCtx struct {
	regs      [isa.MaxRegs][WarpSize]uint32
	stack     []simtEntry
	steps     int
	done      bool
	atBarrier bool
}

// simtEntry is one reconvergence-stack frame: execute at pc under mask
// until pc reaches rpc.
type simtEntry struct {
	pc, rpc int
	mask    uint32
}

func newWarpCtx(p *isa.Program, firstTID int) *warpCtx {
	w := &warpCtx{}
	for lane := 0; lane < WarpSize; lane++ {
		w.regs[0][lane] = uint32(firstTID + lane)
	}
	w.stack = append(w.stack, simtEntry{pc: 0, rpc: -1, mask: fullMask})
	return w
}

// reconvergenceTable maps each branch PC to its PDOM reconvergence PC
// (start of the immediate post-dominator block), or -1.
func reconvergenceTable(g *liveness.CFG) []int {
	pdom := g.PostDominators()
	table := make([]int, g.Prog.Len())
	for pc := range table {
		table[pc] = -1
	}
	for _, b := range g.Blocks {
		last := b.End - 1
		if !g.Prog.At(last).IsBranch() {
			continue
		}
		if pd := pdom[b.ID]; pd >= 0 && pd != b.ID {
			table[last] = g.Blocks[pd].Start
		}
	}
	return table
}

// runWarp executes the warp until it exits or reaches a barrier.
func (m *Machine) runWarp(p *isa.Program, reconv []int, w *warpCtx, shared []byte) error {
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	for {
		if len(w.stack) == 0 {
			w.done = true
			return nil
		}
		e := &w.stack[len(w.stack)-1]
		if e.pc == e.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if w.steps++; w.steps > maxSteps {
			return execErrf("step budget %d exceeded (non-terminating program?)", maxSteps)
		}
		in := p.At(e.pc)
		switch in.Op {
		case isa.OpEXIT:
			if len(w.stack) != 1 {
				return execErrf("pc %d: divergent EXIT unsupported", e.pc)
			}
			w.done = true
			return nil
		case isa.OpBAR:
			e.pc++
			w.atBarrier = true
			return nil
		case isa.OpBRA:
			takenMask := e.mask
			if in.IsConditional() {
				takenMask = 0
				for lane := 0; lane < WarpSize; lane++ {
					if e.mask&(1<<lane) != 0 && w.regs[in.Pred][lane] != 0 {
						takenMask |= 1 << lane
					}
				}
			}
			fallMask := e.mask &^ takenMask
			switch {
			case fallMask == 0:
				e.pc = in.Target
			case takenMask == 0:
				e.pc++
			default:
				rpc := reconv[e.pc]
				if rpc < 0 {
					return execErrf("pc %d: divergent branch without reconvergence point", e.pc)
				}
				fall := e.pc + 1
				e.pc = rpc // this frame becomes the join continuation
				w.stack = append(w.stack,
					simtEntry{pc: fall, rpc: rpc, mask: fallMask},
					simtEntry{pc: in.Target, rpc: rpc, mask: takenMask})
			}
		default:
			if err := m.execLanes(in, e.mask, w, shared, e.pc); err != nil {
				return err
			}
			e.pc++
		}
	}
}

// execLanes applies a non-control instruction to every active lane.
func (m *Machine) execLanes(in *isa.Instr, mask uint32, w *warpCtx, shared []byte, pc int) error {
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		s := func(i int) uint32 { return w.regs[in.Srcs[i]][lane] }
		var v uint32
		switch in.Op {
		case isa.OpNOP:
			continue
		case isa.OpMOV:
			if in.NSrc == 0 {
				v = in.Imm
			} else {
				v = s(0)
			}
		case isa.OpIADD:
			if in.NSrc == 1 {
				v = s(0) + in.Imm
			} else {
				v = s(0) + s(1)
			}
		case isa.OpIMUL:
			v = s(0) * s(1)
		case isa.OpISETP:
			if int32(s(0)) < int32(s(1)) {
				v = 1
			}
		case isa.OpSHF:
			v = s(0) << (in.Imm & 31)
		case isa.OpFADD:
			v = f2b(b2f(s(0)) + b2f(s(1)))
		case isa.OpFMUL:
			v = f2b(b2f(s(0)) * b2f(s(1)))
		case isa.OpFFMA:
			v = f2b(b2f(s(0))*b2f(s(1)) + b2f(s(2)))
		case isa.OpMUFU:
			v = f2b(1 / b2f(s(0)))
		case isa.OpLDG, isa.OpLDS:
			memv, addr := m.Mem, s(0)
			if in.Op == isa.OpLDS {
				memv = shared
			}
			u, err := load32(memv, addr, pc, lane)
			if err != nil {
				return err
			}
			v = u
		case isa.OpSTG, isa.OpSTS:
			memv, addr := m.Mem, w.regs[in.Srcs[1]][lane]
			if in.Op == isa.OpSTS {
				memv = shared
			}
			if err := store32(memv, addr, s(0), pc, lane); err != nil {
				return err
			}
			continue
		default:
			return execErrf("pc %d: unhandled opcode %v", pc, in.Op)
		}
		if in.Dst.Valid() {
			w.regs[in.Dst][lane] = v
		}
	}
	return nil
}

func load32(mem []byte, addr uint32, pc, lane int) (uint32, error) {
	if int(addr)+4 > len(mem) {
		return 0, execErrf("pc %d lane %d: load at %#x out of bounds (%d bytes)", pc, lane, addr, len(mem))
	}
	return uint32(mem[addr]) | uint32(mem[addr+1])<<8 | uint32(mem[addr+2])<<16 | uint32(mem[addr+3])<<24, nil
}

func store32(mem []byte, addr, v uint32, pc, lane int) error {
	if int(addr)+4 > len(mem) {
		return execErrf("pc %d lane %d: store at %#x out of bounds (%d bytes)", pc, lane, addr, len(mem))
	}
	mem[addr] = byte(v)
	mem[addr+1] = byte(v >> 8)
	mem[addr+2] = byte(v >> 16)
	mem[addr+3] = byte(v >> 24)
	return nil
}

func b2f(b uint32) float32 { return math.Float32frombits(b) }
func f2b(f float32) uint32 { return math.Float32bits(f) }

// ReadF32 reads a float32 from machine memory at byte offset off.
func (m *Machine) ReadF32(off int) float32 {
	u, err := load32(m.Mem, uint32(off), -1, -1)
	if err != nil {
		panic(err)
	}
	return b2f(u)
}

// WriteF32 writes a float32 into machine memory at byte offset off.
func (m *Machine) WriteF32(off int, v float32) {
	if err := store32(m.Mem, uint32(off), f2b(v), -1, -1); err != nil {
		panic(err)
	}
}

// ReadU32 reads a uint32 from machine memory at byte offset off.
func (m *Machine) ReadU32(off int) uint32 {
	u, err := load32(m.Mem, uint32(off), -1, -1)
	if err != nil {
		panic(err)
	}
	return u
}

// WriteU32 writes a uint32 into machine memory at byte offset off.
func (m *Machine) WriteU32(off int, v uint32) {
	if err := store32(m.Mem, uint32(off), v, -1, -1); err != nil {
		panic(err)
	}
}
