// Package partition splits a projection space into guiding-path subcubes
// for parallel enumeration. A subcube fixes the first Depth variables of
// the fixed projection order to the values in Path; because the paper's
// decision procedure branches on exactly that order, each subcube is an
// independent subproblem whose solution sets are disjoint by
// construction, and the union over any full split is the whole space.
//
// The pool starts from a static prefix split (Split) sized by
// PrefixDepth, and re-splits any subcube whose enumeration exceeds the
// work threshold (Children), descending one more order position per
// split. Both operations preserve the disjoint-cover invariant, so the
// merged result is identical for every worker count.
package partition

import (
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// MaxDepth bounds how many leading projection variables a subcube can
// fix. Paths are packed into a uint64 (bit i = value of order position
// i), so the bound is under 64. Splitting beyond 48 positions would
// mean 2^48 outstanding subcubes — re-splitting simply stops there.
const MaxDepth = 48

// Subcube is one guiding-path work unit: the assignment Path to the
// first Depth variables of the projection order. The zero Subcube is the
// whole space.
type Subcube struct {
	Path  uint64
	Depth int
}

// Split returns the complete static prefix split at depth k: 2^k
// pairwise-disjoint subcubes covering the whole space. k is clamped to
// [0, min(space.Size(), MaxDepth)].
func Split(space *cube.Space, k int) []Subcube {
	if k > space.Size() {
		k = space.Size()
	}
	if k > MaxDepth {
		k = MaxDepth
	}
	if k < 0 {
		k = 0
	}
	out := make([]Subcube, 1<<uint(k))
	for i := range out {
		out[i] = Subcube{Path: uint64(i), Depth: k}
	}
	return out
}

// Children splits the subcube on the next projection variable in order,
// returning the two disjoint halves. ok is false when the subcube cannot
// be split further (every position fixed, or MaxDepth reached).
func (s Subcube) Children(space *cube.Space) (lo, hi Subcube, ok bool) {
	if s.Depth >= space.Size() || s.Depth >= MaxDepth {
		return s, s, false
	}
	lo = Subcube{Path: s.Path, Depth: s.Depth + 1}
	hi = Subcube{Path: s.Path | 1<<uint(s.Depth), Depth: s.Depth + 1}
	return lo, hi, true
}

// Assumptions renders the subcube as assumption literals over the
// projection variables, appended to buf (pass buf[:0] to reuse).
func (s Subcube) Assumptions(space *cube.Space, buf []lit.Lit) []lit.Lit {
	vars := space.Vars()
	for i := 0; i < s.Depth; i++ {
		buf = append(buf, lit.New(vars[i], s.Path&(1<<uint(i)) == 0))
	}
	return buf
}

// Cube renders the subcube in the space's cube representation (free
// positions beyond Depth).
func (s Subcube) Cube(space *cube.Space) cube.Cube {
	c := space.FullCube()
	for i := 0; i < s.Depth; i++ {
		if s.Path&(1<<uint(i)) != 0 {
			c[i] = lit.True
		} else {
			c[i] = lit.False
		}
	}
	return c
}

// PrefixDepth picks the static split depth for a worker count: the
// smallest k with 2^k >= workers*oversub subcubes, clamped to the space.
// Oversubscription (oversub <= 0 selects 4) gives the scheduler
// enough independent units to balance uneven subcube costs before
// dynamic re-splitting has to kick in.
func PrefixDepth(space *cube.Space, workers, oversub int) int {
	if workers <= 1 {
		return 0
	}
	if oversub <= 0 {
		oversub = 4
	}
	want := workers * oversub
	k := 0
	for 1<<uint(k) < want && k < MaxDepth {
		k++
	}
	if k > space.Size() {
		k = space.Size()
	}
	return k
}

// FailedPattern is a partial assignment over the first MaxDepth order
// positions, recording a failed-assumption subset reported by the
// enumerator: every subcube that agrees with it is UNSAT too. The zero
// pattern (empty subset) matches everything — the formula itself is
// UNSAT.
type FailedPattern struct {
	Mask, Bits uint64
}

// PatternOf converts failed-assumption literals back into a pattern.
// ok is false when a literal lies outside the first MaxDepth positions
// of the order (it cannot be indexed into a path word, so no pruning).
func PatternOf(space *cube.Space, failed []lit.Lit) (FailedPattern, bool) {
	var p FailedPattern
	for _, l := range failed {
		pos := space.PosOf(l.Var())
		if pos < 0 || pos >= MaxDepth {
			return FailedPattern{}, false
		}
		p.Mask |= 1 << uint(pos)
		if !l.Sign() {
			p.Bits |= 1 << uint(pos)
		}
	}
	return p, true
}

// Prunes reports whether the subcube is subsumed by the pattern: every
// position the pattern fixes is fixed to the same value by the subcube.
func (p FailedPattern) Prunes(s Subcube) bool {
	fixed := uint64(1)<<uint(s.Depth) - 1
	if s.Depth >= 64 {
		fixed = ^uint64(0)
	}
	return p.Mask&^fixed == 0 && s.Path&p.Mask == p.Bits
}
