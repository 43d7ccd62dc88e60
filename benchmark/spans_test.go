package main

import "testing"

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "submit", Start: 0, End: 30},
		{ID: 2, Parent: 0, Name: "wait", Start: 20, End: 60},   // overlaps submit by 10
		{ID: 3, Parent: 0, Name: "fetch", Start: 70, End: 120}, // runs past its parent
		{ID: 4, Parent: 2, Name: "inner", Start: 25, End: 35},
		{ID: 5, Parent: -1, Name: "lone", Start: 5, End: 9},
	}
	computeSelf(spans)
	want := []int64{10, 30, 30, 50, 10, 4} // job: 100 − (0..60 ∪ 70..100)
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, w)
		}
	}
	agg := aggregateSpans(spans)
	if got := meanMS(agg, "wait"); got != 40e-6 {
		t.Errorf("mean wait = %v ms, want 40e-6", got)
	}
	if got := meanMS(agg, "absent"); got != 0 {
		t.Errorf("absent span mean = %v", got)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	if id := l.reserve("x", -1, 0, 0, processStart); id != -1 {
		t.Errorf("nil log reserved id %d", id)
	}
	l.finish(-1, processStart)
	if s, k := l.finalize(); s != nil || k != nil {
		t.Errorf("nil log finalized to %v %v", s, k)
	}
}
