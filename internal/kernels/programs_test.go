package kernels

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"finereg/internal/isa"
)

// tableLen reads the program table's entry and instruction counts.
func tableLen() (entries, instrs int) {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	return len(programs.m), programs.instrs
}

// userSource is a small program whose comment line makes the text, and so
// the table key, unique per nonce.
func userSource(nonce int) string {
	return fmt.Sprintf(`; program %d
.kernel user
.regs 8
  MOV R0, #0
  MOV R1, #4
loop:
  LDG R3, [R0] pattern=coalesced region=1 footprint=65536
  IADD R0, R0, #1
  ISETP R2, R0, R1
  @R2 BRA loop trip=4
  EXIT
`, nonce)
}

// TestProgramTableBounded: profiles and sources past the table's bounds
// never grow it beyond tableSize entries or maxInstrs instructions; the
// entry looked up longest ago is the one dropped, and one looked up since
// survives. Profiles that differ only in
// the fields generate does not read — Name, as serve-mix tags its cold
// jobs, Suite, Class, SharedMem, the grid — share one entry.
func TestProgramTableBounded(t *testing.T) {
	cs, err := ProfileByName("CS")
	if err != nil {
		t.Fatal(err)
	}
	first, err := Build(cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	tagged := cs
	tagged.Name += " #cold-17"
	tagged.Suite, tagged.Class, tagged.SharedMem, tagged.GridCTAs = "x", TypeR, 4096, 3
	if k := MustBuild(tagged, 0); k.Prog != first.Prog || k.Live != first.Live || k.code != first.code {
		t.Error("profiles differing only in labels and launch geometry hold different programs")
	}
	if k := MustBuild(tagged, 0); k == first || k.Profile != tagged || k.GridCTAs != 3 {
		t.Error("Build must return a fresh header carrying its own profile and grid")
	}
	trips := cs
	trips.LoopTrips++
	if MustBuild(trips, 0).Prog == first.Prog {
		t.Error("profiles that generate different programs share one entry")
	}

	oldSrc, err := Assemble(userSource(-1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tableSize+8; i++ {
		p := cs
		p.LoopTrips = 100 + i
		if _, err := Generate(p); err != nil {
			t.Fatal(err)
		}
		if _, err := Assemble(userSource(i)); err != nil {
			t.Fatal(err)
		}
		if n, _ := tableLen(); n > tableSize {
			t.Fatalf("after %d distinct profiles and sources the table holds %d entries, bound %d", i+1, n, tableSize)
		}
		if i%8 == 0 { // CS stays warm: a recent lookup survives the churn
			if c, _ := Generate(cs); c != first.code {
				t.Fatal("CS, looked up 16 misses ago, was dropped")
			}
		}
	}
	if c, _ := Assemble(userSource(-1)); c == oldSrc {
		t.Error("the entry looked up longest ago survived a table full of newer ones")
	}

	// Maximal sources: each alone is most of the instruction bound.
	for i := 0; i < 3; i++ {
		body := strings.Repeat("EXIT\n", (isa.MaxSourceBytes-16)/5)
		c, err := Assemble(fmt.Sprintf("; %d\n%s", i, body))
		if err != nil {
			t.Fatal(err)
		}
		n, instrs := tableLen()
		if instrs > maxInstrs || n > tableSize {
			t.Fatalf("after %d maximal sources the table holds %d entries of %d instructions, bounds %d and %d",
				i+1, n, instrs, tableSize, maxInstrs)
		}
		if c.Prog.Len() < maxInstrs/2 {
			t.Fatalf("a maximal source is only %d instructions", c.Prog.Len())
		}
	}
}

// TestGenKeyCoversGenerate: genKey clears exactly the fields generate does
// not read, so changing any of them leaves the generated program as it was.
func TestGenKeyCoversGenerate(t *testing.T) {
	for _, name := range Names() {
		p, _ := ProfileByName(name)
		want := generate(&p)
		q := p
		q.Name, q.Suite, q.Class, q.SharedMem, q.GridCTAs = "other", "other", 1-p.Class, p.SharedMem+1024, p.GridCTAs+1
		if !reflect.DeepEqual(generate(&q), want) {
			t.Errorf("%s: a field genKey clears changes the generated program", name)
		}
		if genKey(p) != genKey(q) {
			t.Errorf("%s: genKey reads a label or launch field", name)
		}
	}
}
