package sat

import (
	"math"
	"slices"

	"allsatpre/internal/lit"
)

// Clause arena: all clauses live in one growable []uint32 backing store,
// MiniSat-style. A clause is identified by a cref — the 32-bit word
// offset of its header — so the hot propagation/analysis paths chase no
// Go pointers and neighbouring clauses share cache lines. The layout per
// clause is
//
//	word 0:            size<<8 | flags   (learnt, deleted, used, tier, reloc)
//	word 1 (learnt):   float32 activity bits
//	word 2 (learnt):   LBD at learn time (improved on use)
//	words hdr..hdr+sz: the literals, one uint32 each
//
// Problem clauses carry a one-word header (no activity/LBD); learnt
// clauses three. Deleted clauses are tombstoned in place (the deleted
// flag) and their words counted as wasted; garbageCollect compacts the
// store when waste passes a threshold, relocating every live clause
// leftward into a fresh backing array and forwarding old crefs through
// the tombstoned headers, so watchers, reasons, and external clause
// lists can be retargeted in one sweep.
type cref uint32

// crefUndef is the nil clause reference (decision/unset reasons).
const crefUndef cref = ^cref(0)

const (
	caLearnt  uint32 = 1 << 0
	caDeleted uint32 = 1 << 1
	// caUsed is the recently-used protection bit: set when the clause
	// participates in conflict analysis (and at learn time), cleared by
	// reduceDB — a used clause survives the round it was useful in.
	caUsed  uint32 = 1 << 2
	caReloc uint32 = 1 << 5

	caTierShift uint32 = 3
	caTierMask  uint32 = 3 << caTierShift
	caSizeShift uint32 = 8
)

// Learnt tiers (Audemard & Simon "glue" tiering). tierNone marks problem
// clauses; core clauses (LBD ≤ 2, and every binary) are kept forever;
// tier2 clauses are demoted to local when unused for a full reduce
// round; local clauses face activity-sorted deletion each round.
const (
	tierNone uint32 = iota
	tierCore
	tierTwo
	tierLocal
)

// tier2LBD is the inclusive LBD bound for the middle tier.
const tier2LBD = 6

// tierFor assigns the initial tier of a learnt clause.
func tierFor(size, lbd int) uint32 {
	switch {
	case size <= 2 || lbd <= 2:
		return tierCore
	case lbd <= tier2LBD:
		return tierTwo
	default:
		return tierLocal
	}
}

type arena struct {
	data   []uint32
	wasted uint32 // words held by deleted clauses, reclaimed by GC
}

// hdrWords is the header length of a clause with header word h.
func hdrWords(h uint32) cref {
	if h&caLearnt != 0 {
		return 3
	}
	return 1
}

// alloc appends a clause and returns its cref. len(ls) must be ≥ 2
// (units propagate instead of being stored).
func (a *arena) alloc(ls []lit.Lit, learnt bool) cref {
	// Grow by doubling: append's growth factor falls towards 1.25× for
	// large slices, which would copy the whole arena every few learnts.
	if need := len(ls) + 3; cap(a.data)-len(a.data) < need {
		a.data = slices.Grow(a.data, max(need, len(a.data)))
	}
	c := cref(len(a.data))
	h := uint32(len(ls)) << caSizeShift
	if learnt {
		h |= caLearnt
		a.data = append(a.data, h, 0, 0)
	} else {
		a.data = append(a.data, h)
	}
	for _, l := range ls {
		a.data = append(a.data, uint32(l))
	}
	return c
}

func (a *arena) size(c cref) int { return int(a.data[c] >> caSizeShift) }

// lits returns the clause's literal words as a mutable view. The view is
// invalidated by any alloc or garbageCollect.
func (a *arena) lits(c cref) []uint32 {
	h := a.data[c]
	base := c + hdrWords(h)
	return a.data[base : base+cref(h>>caSizeShift)]
}

func (a *arena) lit(c cref, i int) lit.Lit {
	return lit.Lit(a.data[c+hdrWords(a.data[c])+cref(i)])
}

func (a *arena) isLearnt(c cref) bool  { return a.data[c]&caLearnt != 0 }
func (a *arena) isDeleted(c cref) bool { return a.data[c]&caDeleted != 0 }
func (a *arena) isUsed(c cref) bool    { return a.data[c]&caUsed != 0 }
func (a *arena) setUsed(c cref)        { a.data[c] |= caUsed }
func (a *arena) clearUsed(c cref)      { a.data[c] &^= caUsed }

func (a *arena) tier(c cref) uint32 { return a.data[c] & caTierMask >> caTierShift }
func (a *arena) setTier(c cref, t uint32) {
	a.data[c] = a.data[c]&^caTierMask | t<<caTierShift
}

func (a *arena) lbd(c cref) int       { return int(a.data[c+2]) }
func (a *arena) setLBD(c cref, d int) { a.data[c+2] = uint32(d) }

func (a *arena) activity(c cref) float64 {
	return float64(math.Float32frombits(a.data[c+1]))
}

func (a *arena) setActivity(c cref, v float64) {
	a.data[c+1] = math.Float32bits(float32(v))
}

// words is the clause's total footprint (header + literals).
func (a *arena) words(c cref) cref {
	h := a.data[c]
	return hdrWords(h) + cref(h>>caSizeShift)
}

// setDeleted tombstones a clause and books its words as wasted.
func (a *arena) setDeleted(c cref) {
	if a.data[c]&caDeleted != 0 {
		return
	}
	a.data[c] |= caDeleted
	a.wasted += uint32(a.words(c))
}

// litsBuf copies the clause's literals into dst[:0].
func (a *arena) litsBuf(c cref, dst []lit.Lit) []lit.Lit {
	dst = dst[:0]
	for _, w := range a.lits(c) {
		dst = append(dst, lit.Lit(w))
	}
	return dst
}

// gcNeeded reports whether wasted space justifies a compaction (> 20 %
// of the store, MiniSat's default).
func (a *arena) gcNeeded() bool {
	return a.wasted > 0 && uint64(a.wasted)*5 > uint64(len(a.data))
}

// reloc moves clause c into `to` (once — later calls return the
// forwarded cref) and returns its new address. Watch/reason holders drop
// deleted clauses instead of relocating; a deleted clause relocated for
// index stability keeps its tombstone and is booked as waste in `to`.
func (a *arena) reloc(c cref, to *arena) cref {
	h := a.data[c]
	if h&caReloc != 0 {
		return cref(a.data[c+1])
	}
	n := a.words(c)
	nc := cref(len(to.data))
	to.data = append(to.data, a.data[c:c+n]...)
	if h&caDeleted != 0 {
		to.wasted += uint32(n)
	}
	// Forward: mark the old header and stash the new cref in word 1
	// (activity word for learnts, first literal otherwise — both are dead
	// now; every read goes through the forward).
	a.data[c] |= caReloc
	a.data[c+1] = uint32(nc)
	return nc
}

// garbageCollect compacts the arena: every live clause referenced from
// the solver's watch lists, reasons, and clause lists is copied into a
// fresh backing store and the references are retargeted in place. The
// problem-clause list is updated through its backing array, so external
// holders of the same slice (ChronoEnum) stay valid. Runs at any
// decision level; reasons of deleted clauses (possible only for level-0
// assignments whose antecedent was simplified away, which analysis never
// dereferences) are cleared to crefUndef.
func (s *Solver) garbageCollect() {
	to := arena{data: make([]uint32, 0, len(s.ca.data)-int(s.ca.wasted))}
	// Binary watchers: binaries are only deleted by RetireClauses, which
	// sweeps them eagerly, but stay defensive and drop tombstones here
	// too.
	for li := range s.binWatches {
		ws := s.binWatches[li]
		out := ws[:0]
		for _, w := range ws {
			if s.ca.isDeleted(cref(w.c)) {
				continue
			}
			w.c = uint32(s.ca.reloc(cref(w.c), &to))
			out = append(out, w)
		}
		s.binWatches[li] = out
	}
	// Long watchers: deleted clauses are dropped lazily during
	// propagation; drop the stragglers now so nothing dead survives.
	for li := range s.watches {
		ws := s.watches[li]
		out := ws[:0]
		for _, w := range ws {
			if s.ca.isDeleted(cref(w.c)) {
				continue
			}
			w.c = uint32(s.ca.reloc(cref(w.c), &to))
			out = append(out, w)
		}
		s.watches[li] = out
	}
	// Reasons of everything currently on the trail.
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != crefUndef {
			if s.ca.isDeleted(r) {
				s.reason[v] = crefUndef
			} else {
				s.reason[v] = s.ca.reloc(r, &to)
			}
		}
	}
	// Problem-clause list: updated in place, position-preserving, through
	// the backing array — ChronoEnum's shared view and the index-keyed
	// state of kernel drivers stay valid. Deleted entries (clauses retired
	// by RetireClauses) keep their positions but not their literals: they
	// all forward to one shared header-only tombstone, which is live
	// structure, not waste.
	stub := crefUndef
	for i, c := range s.clauses {
		if !s.ca.isDeleted(c) {
			s.clauses[i] = s.ca.reloc(c, &to)
			continue
		}
		if stub == crefUndef {
			stub = cref(len(to.data))
			to.data = append(to.data, caDeleted)
		}
		s.clauses[i] = stub
	}
	// Learnt list: nothing holds indices into it, so drop tombstones.
	out := s.learnts[:0]
	for _, c := range s.learnts {
		if s.ca.isDeleted(c) {
			continue
		}
		out = append(out, s.ca.reloc(c, &to))
	}
	s.learnts = out
	s.stats.ArenaGCs++
	s.ca = to
}
