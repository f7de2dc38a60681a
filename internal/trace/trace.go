// Package trace generates the synthetic instruction streams that stand in
// for the paper's SPEC CPU 2000/2006 Pinpoints traces (see DESIGN.md's
// substitution table). Every generator is a pure function of the
// instruction index: the same (seed, index) always yields the same
// instruction. That determinism makes multiprogrammed runs reproducible
// and lets the runahead-execution core model replay wrong-path work by
// simply re-walking indices. At is that random access; a Cursor reads the
// same instructions in order at a fraction of its cost, and is what the
// core fetches through.
//
// A Gen interleaves a memory-op Pattern with compute instructions; the
// Pattern vocabulary (streams, strides, bursts, random, pointer chasing,
// loops, phases, mixes) spans the behaviors that distinguish the paper's
// prefetch-friendly, prefetch-unfriendly, and insensitive benchmark
// classes.
package trace

// Inst is one dynamic instruction.
type Inst struct {
	Mem  bool
	Line uint64 // cache-line address (only when Mem)
	PC   uint64 // synthetic PC for PC-indexed prefetchers
	Dep  bool   // this load consumes the previous load's value
}

// MemOp is the m-th memory operation of a Pattern.
type MemOp struct {
	Line uint64
	PC   uint64
	Dep  bool
}

// Pattern produces the memory-op subsequence of a stream.
type Pattern interface {
	Name() string
	MemOp(m uint64) MemOp
}

// Gen is a full instruction stream: one memory op every MemEvery
// instructions, compute otherwise; each line the Pattern produces is
// touched Repeat times in a row (spatial locality within a cache line,
// absorbed by the L1), so the last-level miss intensity is roughly
// 1000/(MemEvery*Repeat) MPKI for always-missing patterns.
type Gen struct {
	Pattern  Pattern
	MemEvery uint64
	Repeat   uint64 // consecutive touches per line; 0 means 1
}

// At returns instruction i.
func (g Gen) At(i uint64) Inst {
	if g.MemEvery == 0 || i%g.MemEvery != 0 {
		return Inst{}
	}
	m := i / g.MemEvery
	rep := g.Repeat
	if rep == 0 {
		rep = 1
	}
	op := g.Pattern.MemOp(m / rep)
	// A dependence (pointer chase) binds only the first touch of a line;
	// the rest are L1 hits on the fetched line.
	return Inst{Mem: true, Line: op.Line, PC: op.PC, Dep: op.Dep && m%rep == 0}
}

// Cursor reads a Gen's instructions in index order, as At would return
// them, without At's divides: it keeps the index of the next memory op
// and where that op falls in its line's run of Repeat touches, and it
// asks the Pattern for an op only when the run moves to a new line.
// Seek repositions it anywhere.
type Cursor struct {
	g   Gen
	rep uint64 // Repeat, with 0 read as 1
	i   uint64 // index of the instruction Next returns
	mem uint64 // index of the first memory op at or after i
	r   uint64 // that op's number m, modulo rep
	k   uint64 // m / rep: the Pattern op it touches
	// op is Pattern.MemOp(opK) when have.
	op   MemOp
	opK  uint64
	have bool
}

// Cursor returns a cursor whose first Next is At(i).
func (g Gen) Cursor(i uint64) Cursor {
	c := Cursor{g: g, rep: max64(1, g.Repeat)}
	c.Seek(i)
	return c
}

// Seek makes the next Next return At(i). The op a seek lands on is kept
// if it is the one the cursor already holds.
func (c *Cursor) Seek(i uint64) {
	c.i = i
	if c.g.MemEvery == 0 {
		c.mem = ^uint64(0) // never a memory op; Next checks MemEvery there
		return
	}
	m := i / c.g.MemEvery
	if i%c.g.MemEvery != 0 {
		m++
	}
	c.mem = m * c.g.MemEvery
	c.r, c.k = m%c.rep, m/c.rep
}

// Index returns the index of the instruction Next returns.
func (c *Cursor) Index() uint64 { return c.i }

// Next returns the instruction at Index and advances past it.
func (c *Cursor) Next() Inst {
	i := c.i
	c.i++
	if i != c.mem || c.g.MemEvery == 0 {
		return Inst{}
	}
	if !c.have || c.opK != c.k {
		c.op, c.opK, c.have = c.g.Pattern.MemOp(c.k), c.k, true
	}
	in := Inst{Mem: true, Line: c.op.Line, PC: c.op.PC, Dep: c.op.Dep && c.r == 0}
	c.mem += c.g.MemEvery
	if c.r++; c.r == c.rep {
		c.r = 0
		c.k++
	}
	return in
}

// mix64 is SplitMix64's finalizer over a seeded counter; the workhorse for
// deterministic pseudo-randomness indexed by position.
func mix64(seed, x uint64) uint64 {
	x += seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StreamPattern interleaves Streams concurrent sequential streams. Each
// stream walks StreamLen consecutive lines from a pseudo-random region
// start, then jumps to a fresh region. Long StreamLen mimics libquantum-
// class near-perfect streams; short StreamLen (3–8) produces exactly the
// "stream prefetcher trains, then the stream dies" behavior that makes
// galgel/ammp-class benchmarks prefetch-unfriendly.
type StreamPattern struct {
	Seed      uint64
	Streams   uint64 // concurrent streams (≥1)
	StreamLen uint64 // lines per region before jumping (≥1)
	WSLines   uint64 // working-set size in lines
	StrideLn  uint64 // lines between consecutive accesses (1 = unit)
}

// Name implements Pattern.
func (p StreamPattern) Name() string { return "stream" }

// MemOp implements Pattern. Zero-valued knobs clamp to 1 so the generator
// is total over its parameter space (a hand-built or fuzzed pattern can
// never panic, it just degenerates to a single stream/line).
func (p StreamPattern) MemOp(m uint64) MemOp {
	streams := max64(1, p.Streams)
	slen := max64(1, p.StreamLen)
	ws := max64(1, p.WSLines)
	s := m % streams
	k := m / streams
	region := k / slen
	off := (k % slen) * max64(1, p.StrideLn)
	base := mix64(p.Seed, s<<32|region) % ws
	return MemOp{Line: (base + off) % ws, PC: p.Seed<<8 | s}
}

// RandomPattern touches uniformly random lines in a working set; with a
// working set far larger than the cache this is a high-MPKI,
// prefetch-hostile stream (art-class).
type RandomPattern struct {
	Seed    uint64
	WSLines uint64
	Dep     bool // make every load depend on the previous one (mcf-class)
}

// Name implements Pattern.
func (p RandomPattern) Name() string {
	if p.Dep {
		return "chase"
	}
	return "random"
}

// MemOp implements Pattern. A zero working set clamps to one line.
func (p RandomPattern) MemOp(m uint64) MemOp {
	return MemOp{Line: mix64(p.Seed, m) % max64(1, p.WSLines), PC: p.Seed << 8, Dep: p.Dep}
}

// LoopPattern walks Len consecutive lines over and over — a small, hot
// working set that caches absorb after one lap (class-0 behavior). The
// base offset is seeded so different loops do not alias.
type LoopPattern struct {
	Seed    uint64
	Len     uint64
	WSLines uint64
}

// Name implements Pattern.
func (p LoopPattern) Name() string { return "loop" }

// MemOp implements Pattern. Zero-valued knobs clamp to 1.
func (p LoopPattern) MemOp(m uint64) MemOp {
	return MemOp{Line: mix64(p.Seed, 0)%max64(1, p.WSLines) + m%max64(1, p.Len), PC: p.Seed << 8}
}

// ShuffledLoopPattern repeats a fixed pseudo-random sequence of Len lines —
// the recurring miss sequence a Markov (temporal-correlation) prefetcher
// can learn but a stream prefetcher cannot.
type ShuffledLoopPattern struct {
	Seed    uint64
	Len     uint64
	WSLines uint64
}

// Name implements Pattern.
func (p ShuffledLoopPattern) Name() string { return "shuffled-loop" }

// MemOp implements Pattern. Zero-valued knobs clamp to 1.
func (p ShuffledLoopPattern) MemOp(m uint64) MemOp {
	return MemOp{Line: mix64(p.Seed, m%max64(1, p.Len)) % max64(1, p.WSLines), PC: p.Seed << 8}
}

// PhasedPattern alternates between two sub-patterns — ALen memory ops of
// A, then BLen of B — reproducing the strong accuracy phase behavior the
// paper measures for milc (Figure 4(b)).
type PhasedPattern struct {
	A, B       Pattern
	ALen, BLen uint64
}

// Name implements Pattern.
func (p PhasedPattern) Name() string { return "phased(" + p.A.Name() + "," + p.B.Name() + ")" }

// MemOp implements Pattern. A zero-length period (ALen+BLen == 0) clamps
// to a pure-A pattern rather than dividing by zero.
func (p PhasedPattern) MemOp(m uint64) MemOp {
	period := p.ALen + p.BLen
	if period == 0 {
		return p.A.MemOp(m)
	}
	cycle, off := m/period, m%period
	if off < p.ALen {
		return p.A.MemOp(cycle*p.ALen + off)
	}
	return p.B.MemOp(cycle*p.BLen + (off - p.ALen))
}

// MixPattern draws each memory op from A with probability NumA/Den, else
// from B, deterministically by index.
type MixPattern struct {
	Seed      uint64
	A, B      Pattern
	NumA, Den uint64
}

// Name implements Pattern.
func (p MixPattern) Name() string { return "mix(" + p.A.Name() + "," + p.B.Name() + ")" }

// MemOp implements Pattern. A zero denominator clamps to 1 (all draws
// compare against NumA, so Den == 0 degenerates to pure-B for NumA == 0
// and pure-A otherwise).
func (p MixPattern) MemOp(m uint64) MemOp {
	if mix64(p.Seed^0xabcd, m)%max64(1, p.Den) < p.NumA {
		return p.A.MemOp(m)
	}
	return p.B.MemOp(m)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
