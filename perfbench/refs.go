package main

import (
	"fmt"
	"math/bits"
	"math/rand"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// The reference answers are computed by explicit-state simulation over
// circuit.Simulator — never by an engine under test. An assignment index
// packs the present state in bits 0..L-1 and the inputs above them, which
// is also the position order of the (state ++ input) projection spaces
// the payloads use, so a cube's position p is bit p of the index.

// explicitModel is a circuit's full transition table.
type explicitModel struct {
	latches int
	next    []uint32 // next[a] for assignment index a
}

// maxExplicitBits bounds the assignments a reference may tabulate.
const maxExplicitBits = 22

func newExplicitModel(c *circuit.Circuit) (*explicitModel, error) {
	l, in := len(c.Latches), len(c.Inputs)
	if l+in > maxExplicitBits {
		return nil, fmt.Errorf("%s: %d state+input bits is too many to tabulate", c.Name, l+in)
	}
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	total := 1 << (l + in)
	m := &explicitModel{latches: l, next: make([]uint32, total)}
	st := make([]uint64, l)
	ins := make([]uint64, in)
	for base := 0; base < total; base += 64 {
		// Lane j of every word simulates assignment base+j.
		for k := range st {
			st[k] = laneWord(base, k)
		}
		for k := range ins {
			ins[k] = laneWord(base, l+k)
		}
		_, nx := sim.Step64(st, ins)
		for j := 0; j < 64 && base+j < total; j++ {
			var v uint32
			for k, w := range nx {
				v |= uint32(w>>j&1) << k
			}
			m.next[base+j] = v
		}
	}
	return m, nil
}

// laneWord is bit `bit` of the 64 consecutive indices starting at base.
func laneWord(base, bit int) uint64 {
	var w uint64
	for j := 0; j < 64; j++ {
		if (base+j)>>bit&1 == 1 {
			w |= 1 << j
		}
	}
	return w
}

// bitset is a set of indices.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]>>(i&63)&1 == 1 }
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// patternSet returns the states matching any of the 01X patterns.
func patternSet(nLatches int, patterns []string) bitset {
	s := newBitset(1 << nLatches)
	for _, p := range patterns {
		mask, val := patternMask(p)
		free := ^mask & (1<<nLatches - 1)
		forSubsets(free, func(sub int) { s.set(val | sub) })
	}
	return s
}

// patternMask returns the fixed positions and their values.
func patternMask(p string) (mask, val int) {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '0':
			mask |= 1 << i
		case '1':
			mask |= 1 << i
			val |= 1 << i
		}
	}
	return mask, val
}

// forSubsets calls fn for every subset of the bits of free.
func forSubsets(free int, fn func(int)) {
	sub := 0
	for {
		fn(sub)
		sub = (sub - free) & free
		if sub == 0 {
			return
		}
	}
}

// prePairs returns the (state, input) assignments whose successor lies in
// target: the projected model set of the preimage CNF.
func (m *explicitModel) prePairs(target bitset) bitset {
	out := newBitset(len(m.next))
	for a, nx := range m.next {
		if target.has(int(nx)) {
			out.set(a)
		}
	}
	return out
}

// preStates returns the states with some input leading into target.
func (m *explicitModel) preStates(target bitset) bitset {
	out := newBitset(1 << m.latches)
	mask := 1<<m.latches - 1
	for a, nx := range m.next {
		if target.has(int(nx)) {
			out.set(a & mask)
		}
	}
	return out
}

// backwardLayers runs explicit backward BFS from target and returns the
// size of each distance layer: layers[0] is the target, the sum is the
// reached-state count, and len-1 is the fixpoint depth.
func (m *explicitModel) backwardLayers(target bitset) []int {
	nStates := 1 << m.latches
	mask := nStates - 1
	// Predecessor lists in CSR form.
	start := make([]int32, nStates+1)
	for _, nx := range m.next {
		start[nx+1]++
	}
	for i := 0; i < nStates; i++ {
		start[i+1] += start[i]
	}
	fill := append([]int32(nil), start[:nStates]...)
	pred := make([]int32, len(m.next))
	for a, nx := range m.next {
		pred[fill[nx]] = int32(a & mask)
		fill[nx]++
	}
	seen := newBitset(nStates)
	var frontier []int32
	for s := 0; s < nStates; s++ {
		if target.has(s) {
			seen.set(s)
			frontier = append(frontier, int32(s))
		}
	}
	layers := []int{len(frontier)}
	for len(frontier) > 0 {
		var nextLayer []int32
		for _, t := range frontier {
			for _, p := range pred[start[t]:start[t+1]] {
				if !seen.has(int(p)) {
					seen.set(int(p))
					nextLayer = append(nextLayer, p)
				}
			}
		}
		if len(nextLayer) > 0 {
			layers = append(layers, len(nextLayer))
		}
		frontier = nextLayer
	}
	return layers
}

// coverCheck folds streamed 01X cubes into a set, order-independently:
// it reports whether every minterm of every cube lies in ref (soundness)
// and how many distinct minterms the cubes cover (completeness when equal
// to ref's count).
type coverCheck struct {
	ref   bitset
	seen  bitset
	width int
	sound bool
}

func newCoverCheck(ref bitset, width int) *coverCheck {
	return &coverCheck{ref: ref, seen: newBitset(1 << width), width: width, sound: true}
}

func (cc *coverCheck) add(pattern string) {
	if len(pattern) != cc.width {
		cc.sound = false
		return
	}
	mask, val := patternMask(pattern)
	free := ^mask & (1<<cc.width - 1)
	forSubsets(free, func(sub int) {
		i := val | sub
		if !cc.ref.has(i) {
			cc.sound = false
		}
		cc.seen.set(i)
	})
}

// exact reports whether the folded cubes denote exactly the reference set.
func (cc *coverCheck) exact() bool { return cc.sound && cc.seen.count() == cc.ref.count() }

// drawState draws a uniformly random state.
func drawState(r *rand.Rand, n int) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = r.Intn(2) == 1
	}
	return s
}

// producibleTarget draws a next state the circuit really produces (from a
// random state and input) and frees every xEvery-th position, in the
// style of the repository's experiment targets. xEvery 0 keeps the full
// state.
func producibleTarget(c *circuit.Circuit, r *rand.Rand, xEvery int) (string, error) {
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		return "", err
	}
	_, next := sim.Step(drawState(r, len(c.Latches)), drawState(r, len(c.Inputs)))
	p := make([]byte, len(next))
	for i, b := range next {
		switch {
		case xEvery > 0 && i%xEvery == xEvery-1:
			p[i] = 'X'
		case b:
			p[i] = '1'
		default:
			p[i] = '0'
		}
	}
	return string(p), nil
}

// stateString renders a state as a full 01 pattern.
func stateString(s []bool) string {
	p := make([]byte, len(s))
	for i, b := range s {
		p[i] = '0'
		if b {
			p[i] = '1'
		}
	}
	return string(p)
}

// fillCube completes a cube to a full assignment, drawing free positions.
func fillCube(c cube.Cube, r *rand.Rand) []bool {
	out := make([]bool, len(c))
	for i, t := range c {
		switch t {
		case lit.True:
			out[i] = true
		case lit.False:
		default:
			out[i] = r.Intn(2) == 1
		}
	}
	return out
}
