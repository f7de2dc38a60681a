package cpu

import (
	"fmt"
	"testing"

	"padc/internal/trace"
)

// Load-log golden: a core driven through a seeded fake hierarchy must make
// exactly the Load calls, in exactly the order, that it made when the
// digests below were recorded. Both run-loop kernels drive the same Core,
// so the kernel differentials cannot see a change in which loads the core
// retries or when; this log can. Each case also runs under a driver that
// ticks the core only from its NextEvent claims, and the two logs must be
// equal.

// mix64 is the splitmix64 finalizer, the fake's only source of chance.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// logPattern is a seeded pattern over a small footprint, so loads hit,
// merge onto in-flight lines and miss; depEvery > 0 makes about one op in
// depEvery a dependent load.
type logPattern struct {
	seed      uint64
	footprint uint64
	depEvery  uint64
}

func (p logPattern) Name() string { return "loadlog" }
func (p logPattern) MemOp(m uint64) trace.MemOp {
	h := mix64(p.seed ^ m*0x2545f4914f6cdd1d)
	op := trace.MemOp{Line: h % p.footprint, PC: m % 16}
	if p.depEvery > 0 && (h>>32)%p.depEvery == 0 {
		op.Dep = true
	}
	return op
}

// fill is one scheduled line fill: at cycle due the line becomes resident
// and every waiting load completes with ready time due+extra.
type fill struct {
	due, extra uint64
	line       uint64
}

// logMem is a seeded fake hierarchy. A resident line hits; a line in
// flight merges (Pending). Otherwise the load is rejected with the current
// stamp when stamped if every one of mshrCap fill slots is taken (a full
// MSHR file) or if the stamp locks its line (one line in four per stamp
// value, so parked and issuing loads mix within a cycle); else it is
// rejected without a stamp about one call in eight (a full request
// buffer), or allocates a slot (Pending). The stamp moves on every
// allocation and fill, and a stamped rejection depends on nothing else,
// so it keeps its promise.
type logMem struct {
	seed     uint64
	stamped  bool
	mshrCap  int
	resident []uint64            // FIFO of resident lines
	inflight map[uint64][]uint64 // line -> waiting seqs
	fills    []fill              // in due order
	stamp    uint64
	calls    uint64
	log      uint64 // FNV-1a over every Load call
}

func newLogMem(seed uint64, stamped bool, mshrCap int) *logMem {
	return &logMem{seed: seed, stamped: stamped, mshrCap: mshrCap,
		inflight: map[uint64][]uint64{}, stamp: 1, log: fnvOffset}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func (m *logMem) Load(_ int, seq, line, _ uint64, runahead bool, now uint64, firstTry bool) LoadResult {
	m.calls++
	flags := uint64(0)
	if firstTry {
		flags |= 1
	}
	if runahead {
		flags |= 2
	}
	for _, v := range [...]uint64{now, seq, line, flags} {
		m.log = fnvAdd(m.log, v)
	}
	for _, r := range m.resident {
		if r == line {
			return LoadResult{ReadyAt: now + 1 + line%3}
		}
	}
	if w, ok := m.inflight[line]; ok {
		m.inflight[line] = append(w, seq)
		return LoadResult{Pending: true}
	}
	if len(m.inflight) >= m.mshrCap || mix64(m.stamp^line)%4 == 0 {
		res := LoadResult{Retry: true}
		if m.stamped {
			res.Stamp, res.Gen = m.stamp, m.stamp
		}
		return res
	}
	h := mix64(m.seed ^ m.calls*0x9e3779b97f4a7c15)
	if h%8 == 0 {
		return LoadResult{Retry: true}
	}
	m.inflight[line] = []uint64{seq}
	f := fill{due: now + 20 + (h>>8)%60, extra: (h >> 16) % 3, line: line}
	i := len(m.fills)
	for i > 0 && m.fills[i-1].due > f.due {
		i--
	}
	m.fills = append(m.fills, fill{})
	copy(m.fills[i+1:], m.fills[i:])
	m.fills[i] = f
	m.stamp++
	return LoadResult{Pending: true}
}

func (m *logMem) Stamp(int) uint64 { return m.stamp }

// Holds answers from the single stamp: a rejection that carried the
// current stamp as its generation holds, so the check never parks a load
// the stamp does not already park, and the Load order stays the stamp's.
func (m *logMem) Holds(_ int, _, gen uint64) bool { return gen == m.stamp }

// plainMem hides logMem's Stamper: the core then honors no stamp.
type plainMem struct{ *logMem }

func (m plainMem) Load(id int, seq, line, pc uint64, ra bool, now uint64, first bool) LoadResult {
	return m.logMem.Load(id, seq, line, pc, ra, now, first)
}

// external applies cycle now's outside events after the core's tick: due
// fills (the line turns resident, the oldest resident line is evicted
// past eight, waiters complete) and a seeded spontaneous stamp move, as
// another core sharing the L2 would cause. Before the first event it
// calls settle, which must apply the core's accounting through cycle now
// while the core still holds the state that cycle saw. It reports whether
// anything happened.
func (m *logMem) external(c *Core, now uint64, settle func()) bool {
	moved := (len(m.fills) > 0 && m.fills[0].due == now) || mix64(m.seed^now)%61 == 0
	if !moved {
		return false
	}
	settle()
	for len(m.fills) > 0 && m.fills[0].due == now {
		f := m.fills[0]
		m.fills = m.fills[1:]
		for _, seq := range m.inflight[f.line] {
			c.Complete(seq, now+f.extra)
		}
		delete(m.inflight, f.line)
		m.resident = append(m.resident, f.line)
		if len(m.resident) > 8 {
			m.resident = m.resident[1:]
		}
		m.stamp++
	}
	if mix64(m.seed^now)%61 == 0 {
		m.stamp++
	}
	return true
}

type loadLogCase struct {
	rob      int
	runahead bool
	stamps   string // "stamped", "zero" (Stamper, stamp 0) or "none" (no Stamper)
	memEvery uint64
	depEvery uint64
	mshrCap  int
	seed     uint64
}

func (tc loadLogCase) String() string {
	return fmt.Sprintf("rob%d/ra=%v/%s/every%d/dep%d/mshr%d/seed%d",
		tc.rob, tc.runahead, tc.stamps, tc.memEvery, tc.depEvery, tc.mshrCap, tc.seed)
}

const loadLogCycles = 4000

// runLoadLog drives one case for loadLogCycles cycles and returns the
// digest of its Load log and final counters, and the core's tick count.
// everyCycle ticks the core on every cycle; otherwise the core ticks only
// from its NextEvent claim and Skip applies the cycles it slept through,
// as the event kernel does.
func runLoadLog(tc loadLogCase, everyCycle bool) (digest uint64, ticks int) {
	m := newLogMem(tc.seed, tc.stamps == "stamped", tc.mshrCap)
	var mem Memory = m
	if tc.stamps == "none" {
		mem = plainMem{m}
	}
	g := trace.Gen{Pattern: logPattern{seed: tc.seed, footprint: 48, depEvery: tc.depEvery}, MemEvery: tc.memEvery}
	c := New(0, Config{ROB: tc.rob, Width: 4, Runahead: tc.runahead}, g, mem)
	c.EnableAccounting()
	var settled, wake uint64
	settle := func(now uint64) {
		if now > settled {
			c.Skip(now - settled)
			settled = now
		}
	}
	for now := uint64(1); now <= loadLogCycles; now++ {
		if everyCycle || now >= wake {
			settle(now - 1)
			c.Tick(now)
			settled = now
			ticks++
			wake = c.NextEvent(now)
		}
		if m.external(c, now, func() { settle(now) }) && !everyCycle {
			wake = c.NextEvent(now)
		}
	}
	settle(loadLogCycles)
	next, rob, deferred := c.Window()
	h := m.log
	for _, v := range []uint64{m.calls, c.Retired, c.Loads, c.StallCycles, c.RAEntries, c.RAInsts, c.Parks,
		next, uint64(rob), uint64(deferred)} {
		h = fnvAdd(h, v)
	}
	for _, v := range c.AccountSnapshot() {
		h = fnvAdd(h, v)
	}
	return h, ticks
}

// loadLogGolden pins each case's digest, recorded before the deferred
// loads were indexed by retry phase; the every-load-dependent cases were
// recorded before a load waited under its unissued producer.
var loadLogGolden = []struct {
	tc     loadLogCase
	digest uint64
}{
	{loadLogCase{16, false, "stamped", 2, 4, 4, 1}, 0xee1843b402c9a4aa},
	{loadLogCase{16, true, "stamped", 2, 4, 4, 2}, 0xe57ea195605e33be},
	{loadLogCase{16, false, "zero", 3, 3, 2, 3}, 0xaa615903211d80f7},
	{loadLogCase{16, true, "none", 1, 5, 3, 4}, 0x168e31f1b509fc39},
	{loadLogCase{64, false, "stamped", 1, 0, 4, 5}, 0x87cb09586e90b5e1},
	{loadLogCase{64, true, "stamped", 3, 4, 6, 6}, 0x728e4071dff3ba0c},
	{loadLogCase{64, false, "none", 2, 3, 4, 7}, 0xeab099faa141beea},
	{loadLogCase{64, true, "zero", 1, 6, 2, 8}, 0xb0ae11310a5eae2d},
	{loadLogCase{256, false, "stamped", 1, 0, 8, 9}, 0x1cdcf1f996f4c86d},
	{loadLogCase{256, true, "stamped", 2, 4, 4, 10}, 0xbd9fbf72dd20506f},
	{loadLogCase{256, false, "stamped", 3, 2, 2, 11}, 0x16e2520bf4d7ec20},
	{loadLogCase{256, true, "zero", 1, 8, 6, 12}, 0x1e2cc406a03786f2},
	{loadLogCase{256, false, "none", 2, 4, 4, 13}, 0xa021d4a389abb8c2},
	// Every load dependent: long chains of loads waiting on unissued
	// producers.
	{loadLogCase{64, false, "stamped", 1, 1, 4, 14}, 0x9569643551b3930f},
	{loadLogCase{64, true, "stamped", 2, 1, 4, 15}, 0xe4a1bb0d48d68816},
	{loadLogCase{64, false, "none", 1, 1, 6, 16}, 0x4c7c500e53cd83dc},
	{loadLogCase{64, true, "none", 2, 1, 2, 17}, 0x0830dbcd13c53d75},
	{loadLogCase{256, false, "stamped", 1, 1, 8, 18}, 0x80ce597baac57987},
	{loadLogCase{256, true, "stamped", 1, 1, 4, 19}, 0x07cd75418dc3e092},
	{loadLogCase{256, false, "none", 2, 1, 4, 20}, 0x6d1b3c99d0747ebd},
	{loadLogCase{256, true, "none", 1, 1, 6, 21}, 0x519f3ff85a6e1759},
}

func TestLoadLogGolden(t *testing.T) {
	for _, g := range loadLogGolden {
		t.Run(g.tc.String(), func(t *testing.T) {
			got, ticks := runLoadLog(g.tc, true)
			woken, wakeTicks := runLoadLog(g.tc, false)
			if woken != got {
				t.Errorf("NextEvent-wake driver logged %#016x after %d ticks, every-cycle driver %#016x after %d",
					woken, wakeTicks, got, ticks)
			}
			if got != g.digest {
				t.Errorf("Load log digest %#016x, want %#016x", got, g.digest)
			}
			t.Logf("every-cycle ticks %d, wake-driver ticks %d", ticks, wakeTicks)
		})
	}
}
