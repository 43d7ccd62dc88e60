package main

import (
	"reflect"
	"strings"
	"testing"

	"finereg/internal/isa"
)

func TestSeedFixesScheduleAndPrograms(t *testing.T) {
	const warmItems = 36
	a := schedule(7, 3, fullMix, warmItems)
	if !reflect.DeepEqual(a, schedule(7, 3, fullMix, warmItems)) {
		t.Error("same seed and round gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(7, 4, fullMix, warmItems)) {
		t.Error("next round repeated the schedule")
	}
	if reflect.DeepEqual(a, schedule(8, 3, fullMix, warmItems)) {
		t.Error("another seed repeated the schedule")
	}
	var count mixSize
	perWarm := map[int]int{}
	for _, o := range a {
		count[o.class]++
		if o.class == opWarm {
			perWarm[o.item]++
		}
	}
	if count != fullMix {
		t.Errorf("schedule holds %v jobs, want %v", count, fullMix)
	}
	if len(perWarm) != warmItems {
		t.Errorf("warm jobs touch %d of %d items", len(perWarm), warmItems)
	}

	va, vb := ingestVariants(7, 32), ingestVariants(7, 32)
	if !reflect.DeepEqual(va, vb) {
		t.Error("same seed gave different program mutations")
	}
	if reflect.DeepEqual(va, ingestVariants(8, 32)) {
		t.Error("another seed gave the same program mutations")
	}
	for _, v := range va {
		if v.trip < 4 || v.trip > 16 || v.regs < 12 || v.regs > 20 || v.grid < 8 || v.grid > 32 {
			t.Errorf("mutation out of range: %+v", v)
		}
	}
}

func TestIngestAndRejectSources(t *testing.T) {
	for _, v := range ingestVariants(1, 32) {
		src := ingestSource(v, "1.0")
		prog, launch, err := isa.AssembleLaunch(src)
		if err != nil {
			t.Fatalf("variant %+v does not assemble: %v", v, err)
		}
		if prog.RegsPerThread != v.regs || launch.GridCTAs != v.grid {
			t.Errorf("variant %+v assembled to regs %d grid %d", v, prog.RegsPerThread, launch.GridCTAs)
		}
		if other := ingestSource(v, "1.1"); other == src || !strings.Contains(other, "1.1") {
			t.Error("nonce does not change the source")
		}
	}
	for _, src := range rejectSources {
		if _, _, err := isa.AssembleLaunch(src); err == nil {
			t.Errorf("reject source assembled:\n%s", src)
		}
	}
}
