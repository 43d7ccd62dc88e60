package kernels

import (
	"errors"
	"fmt"
	"sync"

	"finereg/internal/isa"
	"finereg/internal/liveness"
)

// The program table's two bounds, both constants. tableSize entries hold
// the Table II set, the profile variants one experiment sweeps, and a
// server's programs in flight. maxInstrs bounds what they hold in all: a
// maximal source (isa.MaxSourceBytes of one-instruction lines) is about
// 210 000 instructions and 45 MB with its liveness, and sixty-four of those
// would be an out-of-memory kill; Table II programs are under 100 each. A
// miss past either drops the entries looked up longest ago.
const (
	tableSize = 64
	maxInstrs = 1 << 18
)

// maxDecodings bounds the decoded forms one entry keeps (Kernel.Decoded):
// every machine in the tree decodes under one latency triple, and a request
// naming a fifth displaces the oldest.
const maxDecodings = 4

// Code is one value of the process-wide program table: a program, its
// liveness, the launch directives of its source, and what the simulator
// decodes from them (Kernel.Decoded). The table makes it once per process —
// a profile's program is generated, a source assembled, and either analysed
// once — and every Kernel built from it shares it, on every goroutine.
// Nothing reachable from it is ever written after the table hands it out.
type Code struct {
	Prog *isa.Program
	Live *liveness.Info
	// Launch is the source's .warps/.shmem/.grid directives; zero for a
	// generated program.
	Launch isa.Launch

	done chan struct{} // closed once the fields above and err are set
	err  error
	// used is programs.clock at the last lookup, size the instructions the
	// table counts for the entry; both guarded by programs.mu.
	used uint64
	size int

	mu        sync.Mutex
	decodings []decoding
}

type decoding struct {
	key [3]int64
	val any
}

// Kernel returns a launch of c: a fresh header carrying p and the grid,
// sharing c's program and liveness.
func (c *Code) Kernel(p Profile, gridCTAs int) *Kernel {
	return &Kernel{Profile: p, Prog: c.Prog, Live: c.Live, GridCTAs: gridCTAs, code: c}
}

// Decoded returns the value decode makes of k's program under key (the
// latencies sm bakes into its issue table): kept once per table entry and
// shared by every kernel of that entry. Two first lookups racing may both
// decode; the first to finish is kept and returned to both. A kernel not
// built by the table (a literal Kernel) decodes on every call.
func (k *Kernel) Decoded(key [3]int64, decode func() any) any {
	c := k.code
	if c == nil {
		return decode()
	}
	c.mu.Lock()
	v, ok := c.decodedLocked(key)
	c.mu.Unlock()
	if ok {
		return v
	}
	v = decode()
	c.mu.Lock()
	defer c.mu.Unlock()
	if kept, ok := c.decodedLocked(key); ok {
		return kept
	}
	if len(c.decodings) == maxDecodings {
		c.decodings = append(c.decodings[:0], c.decodings[1:]...)
	}
	c.decodings = append(c.decodings, decoding{key, v})
	return v
}

func (c *Code) decodedLocked(key [3]int64) (any, bool) {
	for _, d := range c.decodings {
		if d.key == key {
			return d.val, true
		}
	}
	return nil, false
}

// key identifies a table entry: exactly what builds it. A profile is keyed
// by the fields generate reads (genKey), a source by its text — the
// assembler, its directives and the liveness pass read nothing else. A
// checked profile has WarpsPerCTA >= 1, so the two kinds never collide.
type key struct {
	prof Profile
	src  string
}

// genKey is p with the fields generate does not read cleared: the program
// is named from Abbrev, so Name and Suite are labels, and Class, SharedMem
// and the grid belong to the launch, not the program.
func genKey(p Profile) key {
	p.Name, p.Suite, p.Class, p.SharedMem, p.GridCTAs = "", "", 0, 0, 0
	return key{prof: p}
}

// progTable is the process-wide program table: at most tableSize entries
// and maxInstrs instructions, least recently looked up dropped first. A
// lookup that finds its entry allocates nothing; concurrent lookups of one
// missing key build it once.
type progTable struct {
	mu     sync.Mutex
	m      map[key]*Code
	clock  uint64
	instrs int // Σ size over m
}

var programs = progTable{m: make(map[key]*Code, tableSize)}

// errBuildPanicked is what waiters on an entry see when its build panicked
// (the panic itself goes to the goroutine that built it).
var errBuildPanicked = errors.New("kernels: program build panicked")

// load returns k's entry, building it with build on a miss. A failed build
// leaves no entry behind, so an error is never served from the table.
func (t *progTable) load(k key, build func(*Code) error) (*Code, error) {
	t.mu.Lock()
	c, hit := t.m[k]
	if !hit {
		if len(t.m) >= tableSize {
			t.evictLocked()
		}
		c = &Code{done: make(chan struct{})}
		t.m[k] = c
	}
	t.clock++
	c.used = t.clock
	t.mu.Unlock()
	if !hit {
		t.build(k, c, build)
	}
	<-c.done
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

// build fills c and then, if c is still in the table, counts its
// instructions against maxInstrs (or, if the build failed, removes it).
func (t *progTable) build(k key, c *Code, build func(*Code) error) {
	c.err = errBuildPanicked
	defer func() {
		close(c.done)
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case t.m[k] != c:
		case c.err != nil:
			delete(t.m, k)
		default:
			c.size = c.Prog.Len()
			t.instrs += c.size
			for t.instrs > maxInstrs {
				t.evictLocked()
			}
		}
	}()
	c.err = build(c)
}

// evictLocked drops the entry looked up longest ago. Kernels built from it
// keep it alive; the next lookup of its key builds a new one.
func (t *progTable) evictLocked() {
	var oldest *Code
	var at key
	for k, c := range t.m {
		if oldest == nil || c.used < oldest.used {
			oldest, at = c, k
		}
	}
	delete(t.m, at)
	t.instrs -= oldest.size
}

// Generate returns the table's program value for profile p: checked,
// generated and analysed on the first lookup of its key (genKey), shared
// after. Profiles that differ only in fields generate does not read share
// one value.
func Generate(p Profile) (*Code, error) {
	if err := checkProfile(&p); err != nil {
		return nil, err
	}
	return programs.load(genKey(p), func(c *Code) (err error) {
		c.Prog = generate(&p)
		if c.Live, err = liveness.Analyze(c.Prog); err != nil {
			return fmt.Errorf("kernels: %s: %w", p.Abbrev, err)
		}
		return nil
	})
}

// Assemble returns the table's program value for source text: assembled
// (with its launch directives) and analysed on the first lookup of the
// text, shared after. Errors are the assembler's *isa.AsmError or the
// liveness pass's, unwrapped.
func Assemble(src string) (*Code, error) {
	return programs.load(key{src: src}, func(c *Code) (err error) {
		if c.Prog, c.Launch, err = isa.AssembleLaunch(src); err != nil {
			return err
		}
		c.Live, err = liveness.Analyze(c.Prog)
		return err
	})
}
