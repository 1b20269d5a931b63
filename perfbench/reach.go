package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"allsatpre/internal/bdd"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/preimage"
	"allsatpre/internal/trans"
)

// reachWorkload is reach-deep: preimage.Reach to fixpoint with default
// options on deep, small circuits — thousands of tiny preimage steps,
// where per-call fixed cost dominates.
type reachWorkload struct {
	failLog
	tr   *tracer
	inst []reachInstance
}

type reachInstance struct {
	c       *circuit.Circuit
	targets []string
	// layers[k] is the explicit-state BFS layer sizes for targets[k].
	layers []layerRuns
}

// layerRuns run-length encodes BFS layer sizes. A counter12 reach has
// 4096 layers of one state each. Held expanded for every target they
// were 2 MB of the benchmark's own data in the live heap, about half of
// what peak_heap_mb read, and part of the heap the GC paces the measured
// ops against.
type layerRuns []struct{ size, count int }

func encodeRuns(layers []int) layerRuns {
	var r layerRuns
	for _, n := range layers {
		if k := len(r) - 1; k >= 0 && r[k].size == n {
			r[k].count++
		} else {
			r = append(r, struct{ size, count int }{n, 1})
		}
	}
	return r
}

func (r layerRuns) expand() []int {
	var out []int
	for _, run := range r {
		for i := 0; i < run.count; i++ {
			out = append(out, run.size)
		}
	}
	return out
}

// reachTargets is how many seed-drawn targets each circuit cycles
// through: more than a 35 s run makes ops on it, so each op has a target
// of its own.
const reachTargets = 64

// reachFree is the chance that a target position is free (X). Every
// state of these circuits lies on one cycle, so from a full state every
// counter12 reach takes 4096 steps and every gray8 reach 256: the op
// times of a circuit then differ only by the host's speed. On the shared
// reference host that speed switches between two states every few
// seconds, so those times were bimodal, and their median flipped between
// the modes from run to run (quartile spread 0.30–0.39 of the median
// over ten seeds). Free positions make the depth vary with the draw: to
// 272–4096 steps on counter12 (median 3512) and 17–256 on gray8 (median
// 221) over 200 draws, so a percentile moves with the host's speed in
// proportion instead of jumping.
const reachFree = 0.25

// reachGOMAXPROCS is the GOMAXPROCS reach-deep runs at. A Reach runs one
// worker; with a second P the runtime's concurrent GC, cycling every few
// MB on the small live heap, ran on the other core, and the same counter12
// op took 0.68–1.19 s over 24 interleaved runs on the shared reference
// host, against 0.64–0.79 s with one P. With one P the GC's work is also
// charged to the op that allocated.
const reachGOMAXPROCS = 1

func (w *reachWorkload) clients() int         { return 1 }
func (w *reachWorkload) setTracer(tr *tracer) { w.tr = tr }
func (w *reachWorkload) close()               {}

func (w *reachWorkload) setup(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	// One op per circuit in turn: johnson16 ops are the fastest third,
	// gray8 the middle third (the op median) and counter12 the slowest
	// third (p90).
	for _, c := range []*circuit.Circuit{gen.Johnson(16), gen.GrayCounter(8), gen.Counter(12, false, false)} {
		m, err := newExplicitModel(c)
		if err != nil {
			return err
		}
		ri := reachInstance{c: c}
		for k := 0; k < reachTargets; k++ {
			t := []byte(stateString(drawState(r, len(c.Latches))))
			for i := range t {
				if r.Float64() < reachFree {
					t[i] = 'X'
				}
			}
			ri.targets = append(ri.targets, string(t))
			ri.layers = append(ri.layers, encodeRuns(m.backwardLayers(patternSet(len(c.Latches), []string{string(t)}))))
		}
		w.inst = append(w.inst, ri)
	}
	// Warm-up: one untimed Reach on each of the two cheaper circuits,
	// from the all-zero state for every seed, so that setup_s does not
	// depend on the draw. The timed ops check every answer.
	for _, ri := range w.inst[:2] {
		n := len(ri.c.Latches)
		res, err := preimage.Reach(ri.c, trans.TargetFromPatterns(n, strings.Repeat("0", n)), 0, preimage.Options{})
		if err != nil || !res.Fixpoint {
			return fmt.Errorf("warm-up reach on %s: no fixpoint (%v)", ri.c.Name, err)
		}
	}
	return nil
}

func (w *reachWorkload) op(_, seq int, tracing bool) []sample {
	ri := &w.inst[seq%len(w.inst)]
	k := seq / len(w.inst) % reachTargets
	n := len(ri.c.Latches)
	target := trans.TargetFromPatterns(n, ri.targets[k])
	class := ri.c.Name

	t0 := time.Now()
	res, err := preimage.Reach(ri.c, target, 0, preimage.Options{})
	d := time.Since(t0)
	ok := err == nil
	if err != nil {
		w.add("%s %s: %v", class, ri.targets[k], err)
	} else {
		ok = w.check(ri, k, res)
	}
	out := []sample{{class: class, dur: d, first: d, ok: ok}}
	if !tracing || err != nil {
		return out
	}

	op := w.tr.newOp()
	t0 = time.Now()
	ok = w.replay(op, ri, k, res)
	d = time.Since(t0)
	return append(out, sample{class: class, dur: d, first: d, ok: ok, traced: true})
}

// check compares a Reach result with the explicit-state BFS: the same
// layer sizes, hence the same reached-state count and fixpoint depth.
func (w *reachWorkload) check(ri *reachInstance, k int, res *preimage.ReachResult) bool {
	name, want := ri.c.Name, ri.layers[k].expand()
	if res.Aborted || !res.Fixpoint {
		w.add("%s %s: no fixpoint (aborted=%v %v)", name, ri.targets[k], res.Aborted, res.AbortReason)
		return false
	}
	// The last preimage adds nothing, so depth d takes d+1 steps.
	if res.Steps != len(want) || len(res.FrontierCounts) != len(want) {
		w.add("%s %s: %d steps and %d layers, want depth %d", name, ri.targets[k],
			res.Steps, len(res.FrontierCounts), len(want)-1)
		return false
	}
	total := 0
	for i, c := range res.FrontierCounts {
		if !c.IsInt64() || c.Int64() != int64(want[i]) {
			w.add("%s %s: layer %d has %v states, want %d", name, ri.targets[k], i, c, want[i])
			return false
		}
		total += want[i]
	}
	if !res.AllCount.IsInt64() || res.AllCount.Int64() != int64(total) {
		w.add("%s %s: reached %v states, want %d", name, ri.targets[k], res.AllCount, total)
		return false
	}
	return true
}

// replay recomputes every frontier of res as a traced pipeline replay
// plus the frontier update (Diff / ISOP / Or) on a manager the benchmark
// owns, checking each new frontier against res as a set.
func (w *reachWorkload) replay(op int, ri *reachInstance, k int, res *preimage.ReachResult) bool {
	n := len(ri.c.Latches)
	space := cube.NewSpace(canonicalVars(n))
	own := bdd.NewOrdered(space.Vars())
	root := w.tr.begin(op, 0, "preimage.reach")
	defer w.tr.end(root)
	visited := own.FromCover(res.Frontiers[0])
	steps := 0
	for i := 0; i < len(res.Frontiers); i++ {
		step := w.tr.begin(op, root, "preimage.step")
		rep, err := replayPreimage(w.tr, op, step, ri.c, res.Frontiers[i], 1, own)
		if err != nil {
			w.tr.end(step)
			w.add("%s %s replay step %d: %v", ri.c.Name, ri.targets[k], i, err)
			return false
		}
		steps++
		fs := w.tr.begin(op, step, "preimage.frontier")
		newSet := own.Diff(rep.set, visited)
		var exact *cube.Cover
		if newSet != bdd.False {
			exact = own.ISOP(newSet, space)
			visited = own.Or(visited, newSet)
		}
		w.tr.end(fs)
		w.tr.end(step)
		if newSet == bdd.False {
			break
		}
		if i+1 >= len(res.Frontiers) || own.FromCover(exact) != own.FromCover(res.Frontiers[i+1]) ||
			own.SatCount(newSet).Cmp(res.FrontierCounts[i+1]) != 0 {
			w.add("%s %s: replayed frontier %d differs from Reach", ri.c.Name, ri.targets[k], i+1)
			return false
		}
	}
	w.tr.add("preimage.steps", float64(steps))
	if steps != res.Steps {
		w.add("%s %s: replay took %d steps, Reach %d", ri.c.Name, ri.targets[k], steps, res.Steps)
		return false
	}
	return true
}

func (w *reachWorkload) layers(tr *tracer) map[string]float64 {
	return preimageLayers(tr)
}
