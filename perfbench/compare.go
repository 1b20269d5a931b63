package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// endToEndMetrics lists the untraced run's metrics with the direction
// that counts as better and the share of the parent's median by which a
// change may worsen them before it is a regression. BENCHMARK.json
// carries the same table.
var endToEndMetrics = []struct {
	name, unit    string
	lowerIsBetter bool
	bound         float64
}{
	{"setup_s", "s", true, 0.25},
	{"op_ms.p50", "ms", true, 0.25},
	{"op_ms.p90", "ms", true, 0.25},
	{"ops_per_s", "1/s", false, 0.25},
	{"first_result_ms.p50", "ms", true, 0.25},
	{"alloc_mb_per_op", "MB", true, 0.2},
	{"peak_heap_mb", "MB", true, 0.25},
}

// compareMain reads two --out files, the parent's and the change's, and
// reports for each (workload, metric) whether the change is better, worse
// or unresolved by the paired rule: at least nine tenths of the pairs won
// (ties count for neither side) and medians further apart than the
// parent's own quartile spread. Runs pair by seed, in the order they were
// recorded. It also checks the no-regression bound for every metric. A
// workload where the change fails more ops than the parent, or has an
// incorrect run, is invalid: its metrics are not judged at all.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare PARENT.ndjson CHANGE.ndjson")
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent median [q1, q3]\tchange median [q1, q3]\twon/lost\tverdict\tbound")
	for _, wl := range workloadNames {
		pairs := pairRecords(parent[wl], change[wl])
		if len(pairs) == 0 {
			continue
		}
		ops, invalid := failureGate(pairs)
		fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%s\t\t\t%s\t\n", wl, len(pairs), ops, map[bool]string{true: "invalid", false: "ok"}[invalid])
		for _, em := range endToEndMetrics {
			var a, b []float64
			for _, p := range pairs {
				va, oka := p[0].Result.Metrics[em.name]
				vb, okb := p[1].Result.Metrics[em.name]
				if oka && okb {
					a = append(a, va.Value)
					b = append(b, vb.Value)
				}
			}
			if len(a) == 0 {
				continue
			}
			v := judge(a, b, em.lowerIsBetter, em.bound)
			if invalid {
				v.verdict, v.bound = "invalid (change fails ops)", "exceeded (change fails ops)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\t%s\n",
				wl, em.name, len(a), v.medA, v.qa[0], v.qa[2], v.medB, v.qb[0], v.qb[2],
				v.won, v.lost, v.verdict, v.bound)
		}
	}
	return tw.Flush()
}

// failureGate totals the failed and attempted ops of both sides of the
// pairs. The change is invalid when it fails more ops than the parent or
// any of its runs is incorrect: a faster change that breaks answers, or
// gets refused, gains nothing.
func failureGate(pairs [][2]record) (summary string, invalid bool) {
	var failed, attempted [2]int
	for _, p := range pairs {
		for side, r := range p {
			failed[side] += r.Result.Failed
			attempted[side] += r.Result.Attempted
			if side == 1 && !r.Result.Correct {
				invalid = true
			}
		}
	}
	invalid = invalid || failed[1] > failed[0]
	return fmt.Sprintf("parent %d/%d, change %d/%d", failed[0], attempted[0], failed[1], attempted[1]), invalid
}

type verdict struct {
	medA, medB     float64
	qa, qb         [3]float64
	won, lost      int
	verdict, bound string
}

// judge applies the paired rule to parent values a and change values b
// (a[i] and b[i] form pair i).
func judge(a, b []float64, lowerIsBetter bool, bound float64) verdict {
	v := verdict{medA: median(a), medB: median(b), qa: quartiles(a), qb: quartiles(b)}
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	for i := range a {
		switch {
		case better(b[i], a[i]):
			v.won++
		case better(a[i], b[i]):
			v.lost++
		}
	}
	n := len(a)
	spread := v.qa[2] - v.qa[0]
	apart := math.Abs(v.medB-v.medA) > spread
	switch {
	case n < 10:
		v.verdict = "unresolved (fewer than 10 pairs)"
	case 10*v.won >= 9*n && apart && better(v.medB, v.medA):
		v.verdict = "better"
	case 10*v.lost >= 9*n && apart && better(v.medA, v.medB):
		v.verdict = "worse"
	default:
		v.verdict = "unresolved"
	}
	// No-regression check: the change's median may be worse than the
	// parent's by at most bound; a spread wider than the bound cannot
	// show that, unless every change run beats every parent run.
	worseBy := (v.medB - v.medA) / math.Abs(v.medA)
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	allBetter := better(minOrMax(b, lowerIsBetter, true), minOrMax(a, lowerIsBetter, false))
	switch {
	case worseBy > bound:
		v.bound = fmt.Sprintf("exceeded (%+.1f%% > %.0f%%)", 100*worseBy, 100*bound)
	case spread/math.Abs(v.medA) > bound && !allBetter:
		v.bound = "unresolved (spread wider than bound)"
	default:
		v.bound = fmt.Sprintf("ok (%+.1f%%)", 100*worseBy)
	}
	return v
}

// minOrMax returns the best (worst=false) or worst (worst=true) value.
func minOrMax(xs []float64, lowerIsBetter, worst bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lowEnd := lowerIsBetter != worst
	if lowEnd {
		return s[0]
	}
	return s[len(s)-1]
}

// quartiles matches Python's statistics.quantiles(data, n=4), whose
// default exclusive method the acceptance rule is stated in.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var q [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// readRecords loads the untraced records of an --out file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Stamp.Trace {
			out[r.Stamp.Workload] = append(out[r.Stamp.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

// pairRecords pairs the k-th parent run of a seed with the k-th change
// run of the same seed.
func pairRecords(a, b []record) [][2]record {
	type key struct {
		seed int64
		k    int
	}
	index := func(rs []record) map[key]record {
		seen := map[int64]int{}
		m := map[key]record{}
		for _, r := range rs {
			m[key{r.Stamp.Seed, seen[r.Stamp.Seed]}] = r
			seen[r.Stamp.Seed]++
		}
		return m
	}
	ia, ib := index(a), index(b)
	var keys []key
	for k := range ia {
		if _, ok := ib[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].k < keys[j].k
	})
	out := make([][2]record, len(keys))
	for i, k := range keys {
		out[i] = [2]record{ia[k], ib[k]}
	}
	return out
}
