package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
	"allsatpre/internal/preimage"
	"allsatpre/internal/trans"
)

// multWorkload is preimage-mult: one-shot success-driven preimage.Compute
// with procs() workers on the multiplier cores, the big-instance case where
// enumeration and ISOP cover extraction dominate.
type multWorkload struct {
	failLog
	tr      *tracer
	inst    []multInstance
	targets [][]string // per instance, drawn from the seed
	rng     *rand.Rand // witness sampling in traced ops
}

type multInstance struct {
	c   *circuit.Circuit
	sim *circuit.Simulator
	// states is every state of the circuit, for the universality check.
	states [][]bool
}

// multCycle is the op sequence, indices into inst: three mult8 ops per
// mult9 op, so the op median falls inside the mult8 cluster and p90
// inside the mult9 cluster instead of in the gap between them.
var multCycle = []int{0, 0, 0, 1}

// multTargets is how many distinct targets each instance cycles through:
// more than a 35 s run makes ops on it, so each op has a target of its
// own and a run's percentiles are over as many targets as ops. A mult
// op's cost depends on the target, so fewer targets would make the run's
// figures hinge on which few the seed drew.
const multTargets = 64

// multWitnesses is how many witness cubes a traced op checks by simulation.
const multWitnesses = 32

func (w *multWorkload) clients() int         { return 1 }
func (w *multWorkload) setTracer(tr *tracer) { w.tr = tr }
func (w *multWorkload) close()               {}

func (w *multWorkload) setup(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	w.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, n := range []int{8, 9} {
		c := gen.MultCore(n)
		sim, err := circuit.NewSimulator(c)
		if err != nil {
			return err
		}
		mi := multInstance{c: c, sim: sim}
		for s := 0; s < 1<<n; s++ {
			st := make([]bool, n)
			for k := range st {
				st[k] = s>>k&1 == 1
			}
			mi.states = append(mi.states, st)
		}
		var ts []string
		for k := 0; k < multTargets; k++ {
			t, err := producibleTarget(c, r, 5)
			if err != nil {
				return err
			}
			ts = append(ts, t)
		}
		w.inst = append(w.inst, mi)
		w.targets = append(w.targets, ts)
	}
	// Warm-up: one untimed op on the smaller core, with a target drawn
	// the same for every seed. A mult op's cost depends on its target, so
	// a seed-drawn one would make setup_s differ from seed to seed.
	warm, err := producibleTarget(w.inst[0].c, rand.New(rand.NewSource(0)), 5)
	if err != nil {
		return err
	}
	if s := w.compute(0, warm, false)[0]; !s.ok {
		return fmt.Errorf("warm-up op failed: %v", w.failures())
	}
	return nil
}

// pick returns the instance and target of op seq.
func (w *multWorkload) pick(seq int) (int, string) {
	i := multCycle[seq%len(multCycle)]
	round := seq / len(multCycle)
	return i, w.targets[i][round%multTargets]
}

func (w *multWorkload) op(_, seq int, tracing bool) []sample {
	i, pattern := w.pick(seq)
	return w.compute(i, pattern, tracing)
}

// compute runs one Compute on instance i, and its traced replay when
// tracing, checking both.
func (w *multWorkload) compute(i int, pattern string, tracing bool) []sample {
	mi := &w.inst[i]
	target := trans.TargetFromPatterns(len(mi.c.Latches), pattern)
	class := mi.c.Name

	t0 := time.Now()
	res, err := preimage.Compute(mi.c, target, preimage.Options{Parallel: procs()})
	d := time.Since(t0)
	ok := err == nil && w.check(mi, pattern, res)
	if err != nil {
		w.add("%s %s: %v", class, pattern, err)
	}
	out := []sample{{class: class, dur: d, first: d, ok: ok}}
	if !tracing || err != nil {
		return out
	}

	op := w.tr.newOp()
	t0 = time.Now()
	root := w.tr.begin(op, 0, "preimage.compute")
	rep, err := replayPreimage(w.tr, op, root, mi.c, target, procs(), nil)
	w.tr.end(root)
	d = time.Since(t0)
	ok = err == nil
	if err != nil {
		w.add("%s %s replay: %v", class, pattern, err)
	} else {
		ok = w.checkReplay(mi, pattern, res, rep)
	}
	return append(out, sample{class: class, dur: d, first: d, ok: ok, traced: true})
}

// check compares a Compute result with the reference: a = s ⊕ x lets every
// state reach every producible next state, so the preimage of a target
// around one is the whole state space, 2^n states.
func (w *multWorkload) check(mi *multInstance, pattern string, res *preimage.Result) bool {
	n := len(mi.c.Latches)
	want := new(big.Int).Lsh(big.NewInt(1), uint(n))
	switch {
	case res.Aborted:
		w.add("%s %s: aborted (%v)", mi.c.Name, pattern, res.AbortReason)
		return false
	case res.Count.Cmp(want) != 0:
		w.add("%s %s: count %v, want %v", mi.c.Name, pattern, res.Count, want)
		return false
	}
	for _, st := range mi.states {
		if !res.States.Contains(st) {
			w.add("%s %s: state %s missing from the preimage", mi.c.Name, pattern, stateString(st))
			return false
		}
	}
	return true
}

// checkReplay compares the traced replay with Compute as sets, and checks
// sampled witness cubes of the replay's projection cover by simulation.
func (w *multWorkload) checkReplay(mi *multInstance, pattern string, res *preimage.Result, rep *replayed) bool {
	n := len(mi.c.Latches)
	if rep.count.Cmp(res.Count) != 0 || !sameStates(n, rep.states, res.States) {
		w.add("%s %s: replay state set differs from Compute (%v vs %v states)", mi.c.Name, pattern, rep.count, res.Count)
		return false
	}
	cubes := rep.proj.Cubes()
	if len(cubes) == 0 {
		w.add("%s %s: replay produced no witness cubes", mi.c.Name, pattern)
		return false
	}
	target := trans.TargetFromPatterns(n, pattern)
	for k := 0; k < multWitnesses; k++ {
		full := fillCube(cubes[w.rng.Intn(len(cubes))], w.rng)
		_, next := mi.sim.Step(full[:n], full[n:])
		if !target.Contains(next) {
			w.add("%s %s: witness %s leads to %s, outside the target", mi.c.Name, pattern,
				stateString(full), stateString(next))
			return false
		}
	}
	return true
}

func (w *multWorkload) layers(tr *tracer) map[string]float64 {
	return preimageLayers(tr)
}
