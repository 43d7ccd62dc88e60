package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare a b reads two files of run records (what -out appends: any
// number of JSON values, one per run) and judges, for every workload and
// end-to-end metric, whether side b is better, the same, worse beyond the
// metric's bound, or unresolved because the run-to-run spread is wider than
// the bound. It is the tool for the two-sets acceptance check and for a
// later change's claim against its parent.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			if len(recs) == 0 {
				return nil, fmt.Errorf("%s: no run records", path)
			}
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// series collects one metric's values per workload over the untraced
// (end-to-end) or the traced (per-layer) records.
func series(recs []record, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Provenance.Traced != traced {
			continue
		}
		w := r.Provenance.Workload
		if out[w] == nil {
			out[w] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[w][name] = append(out[w][name], v.Value)
		}
	}
	return out
}

// spreadShare is the interquartile distance as a share of the median, the
// acceptance procedure's measure; 0 when there are too few runs for one.
func spreadShare(vals []float64) float64 {
	if len(vals) < 4 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	return safeDiv(q3-q1, q2)
}

// verdict judges side b against side a for one metric. "better" needs a
// gain beyond both sides' spread and beyond a tenth of the bound (a count
// that repeats to five digits would otherwise win on its sixth).
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	// gain > 0 means b is better, as a share of a's median.
	gain := safeDiv(mb-ma, ma)
	if d.Better == "lower" {
		gain = -gain
	}
	spread := max(spreadShare(a), spreadShare(b))
	if spread > d.Bound {
		// Too noisy to bound, unless the two sides do not even overlap.
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		bAbove, bBelow := sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
		switch {
		case (d.Better == "higher" && bAbove) || (d.Better == "lower" && bBelow):
			return "better"
		case (d.Better == "higher" && bBelow) || (d.Better == "lower" && bAbove):
			return "WORSE"
		}
		return "unresolved"
	}
	switch {
	case gain < -d.Bound:
		return "WORSE"
	case gain > spread && gain > d.Bound/10:
		return "better"
	}
	return "same"
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	ra, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	rb, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	sa, sb := series(ra, false), series(rb, false)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn(a)\tmedian(a)\tIQR%(a)\tn(b)\tmedian(b)\tIQR%(b)\tb vs a %\tbound %\tverdict\t")
	worse := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sa[w.Name][d.Name], sb[w.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(d, a, b)
			if v == "WORSE" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.1f\t%d\t%.5g\t%.1f\t%+.1f\t%.0f\t%s\t\n",
				w.Name, d.Name, d.Unit, len(a), median(a), 100*spreadShare(a),
				len(b), median(b), 100*spreadShare(b),
				100*safeDiv(median(b)-median(a), median(a)), 100*d.Bound, v)
		}
	}
	tw.Flush()
	layerTable(series(ra, true), series(rb, true), stdout)
	for _, recs := range [][]record{ra, rb} {
		for _, r := range recs {
			if !r.Correct {
				fmt.Fprintf(stdout, "incorrect run: %s seed %d\n", r.Provenance.Workload, r.Provenance.Seed)
				worse++
			}
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// layerTable prints the per-layer metrics of the traced records on both
// sides, side by side and without verdicts: they carry no bound, and they
// are there to show where an end-to-end change came from.
func layerTable(la, lb map[string]map[string][]float64, stdout io.Writer) {
	if len(la) == 0 || len(lb) == 0 {
		return
	}
	fmt.Fprintln(stdout, "\nper-layer metrics (traced runs, medians; 0 = not driven by this workload)")
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian(a)\tmedian(b)\tb vs a %\t")
	for _, w := range workloads {
		for _, d := range perLayer {
			a, b := la[w.Name][d.Name], lb[w.Name][d.Name]
			if len(a) == 0 || len(b) == 0 || (median(a) == 0 && median(b) == 0) {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f\t\n", w.Name, d.Name, d.Unit,
				median(a), median(b), 100*safeDiv(median(b)-median(a), median(a)))
		}
	}
	tw.Flush()
}
