package memsidepf

import (
	"math/rand"
	"testing"

	"padc/internal/dram"
)

func addr(row, col uint64) dram.Address {
	return dram.Address{Channel: 0, Bank: 2, Row: row, Col: col}
}

func TestTrainGeneratesSameRowNeighbors(t *testing.T) {
	e := New(Config{}, 64)
	e.Train(1, 100, addr(5, 0), 10)
	if e.Pending() != 4 {
		t.Fatalf("degree-4 trigger should queue 4 candidates, got %d", e.Pending())
	}
	if e.Generated != 4 || e.Enqueued != 4 {
		t.Fatalf("Generated=%d Enqueued=%d, want 4/4", e.Generated, e.Enqueued)
	}
	// Every candidate is the trigger's address with the column advanced.
	for i, c := range list(e) {
		want := Candidate{Core: 1, Line: 100 + uint64(i+1), Addr: addr(5, uint64(i+1)), Born: 10}
		if c != want {
			t.Fatalf("candidate %d = %+v, want %+v", i, c, want)
		}
	}
}

func TestTrainStopsAtRowBoundary(t *testing.T) {
	e := New(Config{}, 64)
	e.Train(0, 100, addr(5, 62), 0)
	if e.Pending() != 1 {
		t.Fatalf("trigger at column 62 of 64 leaves one neighbor, got %d", e.Pending())
	}
	e2 := New(Config{}, 64)
	e2.Train(0, 100, addr(5, 63), 0)
	if e2.Pending() != 0 {
		t.Fatalf("trigger at the last column must generate nothing, got %d", e2.Pending())
	}
}

func TestTrainDedupesAndFilters(t *testing.T) {
	e := New(Config{}, 64)
	e.Train(0, 100, addr(5, 0), 0)
	e.Train(0, 100, addr(5, 0), 1) // same trigger: all candidates already queued
	if e.Pending() != 4 || e.Enqueued != 4 {
		t.Fatalf("duplicate trigger must not re-enqueue: pending=%d enqueued=%d", e.Pending(), e.Enqueued)
	}

	e2 := New(Config{}, 64)
	e2.SetFilter(func(core int, line uint64) bool { return line%2 == 0 })
	e2.Train(3, 100, addr(5, 0), 0)
	if e2.Pending() != 2 || e2.Filtered != 2 {
		t.Fatalf("filter should reject the even lines: pending=%d filtered=%d", e2.Pending(), e2.Filtered)
	}
}

func TestGateSuppressesGeneration(t *testing.T) {
	open := true
	e := New(Config{}, 64)
	e.SetGate(func() bool { return open })
	e.Train(0, 100, addr(5, 0), 0)
	open = false
	e.Train(0, 200, addr(6, 0), 0)
	if e.Pending() != 4 || e.GateClosed != 1 {
		t.Fatalf("closed gate must suppress the second trigger: pending=%d gateClosed=%d",
			e.Pending(), e.GateClosed)
	}
}

func TestOverflowEvictsOldest(t *testing.T) {
	e := New(Config{ListSize: 4}, 64)
	e.Train(0, 100, addr(5, 0), 0) // fills the list with lines 101..104
	e.Train(0, 200, addr(6, 0), 1) // four more: the first four must be shed
	if e.Pending() != 4 || e.DroppedOverflow != 4 {
		t.Fatalf("pending=%d droppedOverflow=%d, want 4/4", e.Pending(), e.DroppedOverflow)
	}
	for _, c := range list(e) {
		if c.Line < 201 || c.Line > 204 {
			t.Fatalf("stale line %d survived overflow", c.Line)
		}
	}
	if n := indexed(e.byLine); n != 4 {
		t.Fatalf("dedupe index out of sync after overflow: %d entries", n)
	}
	checkIndex(t, e)
}

func TestTakeHonorsAcceptAndStaleness(t *testing.T) {
	e := New(Config{MaxAge: 100}, 64)
	e.Train(0, 100, addr(5, 0), 0)
	e.Train(0, 200, addr(9, 0), 50)

	// Only the second trigger's bank row is an idle window.
	c, ok := e.Take(60, []Window{{Bank: 2, Row: 9}})
	if !ok || c.Line != 201 {
		t.Fatalf("Take skipped to the open row: ok=%v line=%d", ok, c.Line)
	}
	// Past the first trigger's MaxAge its candidates are shed, even with
	// a window open on their row.
	c, ok = e.Take(120, []Window{{Bank: 2, Row: 5}, {Bank: 2, Row: 9}})
	if !ok || c.Line != 202 {
		t.Fatalf("stale candidates must be skipped: ok=%v line=%d", ok, c.Line)
	}
	if e.DroppedStale != 4 {
		t.Fatalf("DroppedStale = %d, want the 4 born-at-0 leftovers", e.DroppedStale)
	}
	if _, ok := e.Take(120, nil); ok {
		t.Fatal("no idle window must return ok=false")
	}
	if _, ok := e.Take(120, []Window{{Bank: 3, Row: 9}}); ok {
		t.Fatal("a window on another bank must not match")
	}
	checkIndex(t, e)
}

func TestTakeReturnsGloballyOldestAcrossBanks(t *testing.T) {
	e := New(Config{}, 64)
	e.Train(0, 300, dram.Address{Bank: 1, Row: 7}, 0)
	e.Train(0, 100, dram.Address{Bank: 0, Row: 5}, 1)
	e.Train(0, 200, dram.Address{Bank: 0, Row: 6}, 2)
	w := []Window{{Bank: 0, Row: 5}, {Bank: 1, Row: 7}}
	for _, want := range []uint64{301, 302, 303, 304, 101} {
		c, ok := e.Take(3, w)
		if !ok || c.Line != want {
			t.Fatalf("Take = %d (ok=%v), want %d: oldest matching candidate first", c.Line, ok, want)
		}
	}
	checkIndex(t, e)
}

func TestPressureDropsWholeList(t *testing.T) {
	e := New(Config{}, 64)
	e.Train(0, 100, addr(5, 0), 0)
	if !e.PressureAt(33, 64) || e.PressureAt(32, 64) {
		t.Fatal("PressureAt must trip strictly above half the buffer")
	}
	if n := e.DropPressure(); n != 4 || e.Pending() != 0 || indexed(e.byLine) != 0 || indexed(e.byRow) != 0 {
		t.Fatalf("DropPressure shed %d, pending=%d byLine=%d byRow=%d",
			n, e.Pending(), indexed(e.byLine), indexed(e.byRow))
	}
	// The list accepts the same lines again after the drop.
	e.Train(0, 100, addr(5, 0), 1)
	if e.Pending() != 4 {
		t.Fatalf("list must refill after a pressure drop, got %d", e.Pending())
	}
	checkIndex(t, e)
}

// TestAccountingPartition checks the pipeline identity on a random
// workload: every admitted candidate is issued, dropped, or still
// pending, and the indexes always mirror the list.
func TestAccountingPartition(t *testing.T) {
	e := New(Config{ListSize: 16, MaxAge: 50}, 64)
	r := rand.New(rand.NewSource(3))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		now += uint64(r.Intn(20))
		switch r.Intn(4) {
		case 0, 1:
			e.Train(r.Intn(4), uint64(r.Intn(4096)), addr(uint64(r.Intn(8)), uint64(r.Intn(64))), now)
		case 2:
			var w []Window
			for row := uint64(0); row < 8; row++ {
				if r.Intn(2) == 0 {
					w = append(w, Window{Bank: 2, Row: row})
				}
			}
			e.Take(now, w)
		case 3:
			if r.Intn(8) == 0 {
				e.DropPressure()
			}
		}
		checkIndex(t, e)
	}
	acct := e.Issued + e.DroppedOverflow + e.DroppedStale + e.DroppedPressure + uint64(e.Pending())
	if acct != e.Enqueued {
		t.Fatalf("admitted-candidate partition broken: issued+dropped+pending=%d, enqueued=%d",
			acct, e.Enqueued)
	}
}

// list returns the engine's candidates in global FIFO order, oldest
// first.
func list(e *Engine) []Candidate {
	var out []Candidate
	for s := e.head; s != none; s = e.slots[s].next {
		out = append(out, e.slots[s].c)
	}
	return out
}

// indexed counts the occupied buckets of an index.
func indexed(idx []int32) int {
	n := 0
	for _, s := range idx {
		if s != none {
			n++
		}
	}
	return n
}

// checkIndex fails unless the engine's structure mirrors its list: the
// global FIFO is doubly linked, oldest first, with Born and admission
// order never decreasing; the dedupe index holds exactly the listed
// lines, each at its own slot; and the (bank, row) index holds one FIFO
// per listed row, whose members are exactly that row's listed
// candidates in list order, each reachable through findLine/findRow.
func checkIndex(t *testing.T, e *Engine) {
	t.Helper()
	var order []int32
	live := map[int32]int{} // slot -> position in the list
	prev := none
	for s := e.head; s != none; s = e.slots[s].next {
		sl := e.slots[s]
		if sl.prev != prev {
			t.Fatalf("slot %d: prev link %d, want %d", s, sl.prev, prev)
		}
		if prev != none && (sl.c.Born < e.slots[prev].c.Born || sl.seq <= e.slots[prev].seq) {
			t.Fatalf("slot %d: Born or admission order decreases along the list", s)
		}
		if _, dup := live[s]; dup || len(order) > len(e.slots) {
			t.Fatal("global FIFO has a cycle")
		}
		live[s] = len(order)
		order = append(order, s)
		prev = s
	}
	if e.tail != prev || len(order) != e.Pending() {
		t.Fatalf("list has %d slots ending at %d; Pending=%d tail=%d", len(order), prev, e.Pending(), e.tail)
	}
	for _, s := range order {
		if _, got := e.findLine(e.slots[s].c.Line); got != s {
			t.Fatalf("listed line %d indexed at slot %d, lives in %d", e.slots[s].c.Line, got, s)
		}
	}
	if n := indexed(e.byLine); n != len(order) {
		t.Fatalf("dedupe index holds %d lines, list %d", n, len(order))
	}
	want := map[[2]uint64][]int32{} // (bank, row) -> listed slots, oldest first
	for _, s := range order {
		a := e.slots[s].c.Addr
		k := [2]uint64{uint64(a.Bank), a.Row}
		want[k] = append(want[k], s)
	}
	heads := 0
	for _, h := range e.byRow {
		if h == none {
			continue
		}
		heads++
		a := e.slots[h].c.Addr
		if _, got := e.findRow(a.Bank, a.Row); got != h {
			t.Fatalf("row (%d,%d) head %d not reachable from its home bucket", a.Bank, a.Row, h)
		}
		var got []int32
		for s := h; s != none; s = e.slots[s].rnext {
			got = append(got, s)
			if len(got) > len(order) {
				t.Fatal("row FIFO has a cycle")
			}
		}
		w := want[[2]uint64{uint64(a.Bank), a.Row}]
		if len(got) != len(w) || e.slots[h].rtail != got[len(got)-1] {
			t.Fatalf("row (%d,%d) FIFO %v (tail %d), listed %v", a.Bank, a.Row, got, e.slots[h].rtail, w)
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("row (%d,%d) FIFO %v, listed %v", a.Bank, a.Row, got, w)
			}
		}
	}
	if heads != len(want) {
		t.Fatalf("row index holds %d FIFOs, list has %d rows", heads, len(want))
	}
}

// refEngine is the linear-scan engine the indexed one replaced, kept as
// the oracle FuzzMemSideEngine checks against: a FIFO slice, a
// dedupe count map, and a Take that scans the whole list with an
// accept predicate, dropping every stale candidate it meets.
type refEngine struct {
	cfg    Config
	lpr    uint64
	list   []Candidate
	have   map[uint64]int
	filter func(core int, line uint64) bool
	gate   func() bool

	Generated, Enqueued, Issued, Filtered                      uint64
	DroppedOverflow, DroppedStale, DroppedPressure, GateClosed uint64
}

func newRef(cfg Config, lpr uint64) *refEngine {
	return &refEngine{cfg: cfg, lpr: lpr, have: map[uint64]int{}}
}

func (e *refEngine) remove(i int) {
	c := e.list[i]
	copy(e.list[i:], e.list[i+1:])
	e.list = e.list[:len(e.list)-1]
	if n := e.have[c.Line] - 1; n <= 0 {
		delete(e.have, c.Line)
	} else {
		e.have[c.Line] = n
	}
}

func (e *refEngine) Train(core int, line uint64, addr dram.Address, now uint64) {
	if e.gate != nil && !e.gate() {
		e.GateClosed++
		return
	}
	for i := uint64(1); i <= uint64(e.cfg.Degree) && addr.Col+i < e.lpr; i++ {
		cand := line + i
		e.Generated++
		if e.have[cand] > 0 {
			continue
		}
		if e.filter != nil && e.filter(core, cand) {
			e.Filtered++
			continue
		}
		if len(e.list) >= e.cfg.ListSize {
			e.remove(0)
			e.DroppedOverflow++
		}
		a := addr
		a.Col += i
		e.list = append(e.list, Candidate{Core: core, Line: cand, Addr: a, Born: now})
		e.have[cand]++
		e.Enqueued++
	}
}

func (e *refEngine) Take(now uint64, accept func(a dram.Address) bool) (Candidate, bool) {
	for i := 0; i < len(e.list); {
		c := e.list[i]
		if now > c.Born+e.cfg.MaxAge {
			e.remove(i)
			e.DroppedStale++
			continue
		}
		if accept(c.Addr) {
			e.remove(i)
			e.Issued++
			return c, true
		}
		i++
	}
	return Candidate{}, false
}

func (e *refEngine) DropPressure() int {
	n := len(e.list)
	e.list = e.list[:0]
	clear(e.have)
	e.DroppedPressure += uint64(n)
	return n
}

// counters lists an engine's counters in one order for comparison.
func counters(e *Engine) [8]uint64 {
	return [8]uint64{e.Generated, e.Enqueued, e.Issued, e.Filtered,
		e.DroppedOverflow, e.DroppedStale, e.DroppedPressure, e.GateClosed}
}

func refCounters(e *refEngine) [8]uint64 {
	return [8]uint64{e.Generated, e.Enqueued, e.Issued, e.Filtered,
		e.DroppedOverflow, e.DroppedStale, e.DroppedPressure, e.GateClosed}
}

// checkAgainstRef drives the indexed engine and the linear-scan oracle
// with the op stream in data and fails at the first step where a
// returned candidate, Pending or any counter differs. data[0] sizes the
// list (1..8) and data[1] the staleness bound (1..32), small enough that
// overflow and staleness fire often. Each later op byte picks an action
// and, from the following byte, its operands:
//
//   - Train: core, line (0..63) and an address on 4 banks x 4 rows,
//     drawn apart from the line so the two indexes are keyed
//     independently;
//   - Take: a random set of idle banks, each with a random open row;
//   - DropPressure;
//   - a flip of the accuracy gate.
//
// The op byte's high bits advance now by 0..7 cycles before the action.
func checkAgainstRef(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	cfg := Config{ListSize: 1 + int(data[0]%8), Degree: 4, MaxAge: 1 + uint64(data[1]%32)}
	const lpr = 8
	e, ref := New(cfg, lpr), newRef(cfg, lpr)
	open := true
	gate := func() bool { return open }
	filter := func(core int, line uint64) bool { return (line+uint64(core))%5 == 0 }
	e.SetGate(gate)
	e.SetFilter(filter)
	ref.gate, ref.filter = gate, filter
	now := uint64(0)
	ops := data[2:]
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		arg := uint32(0)
		if i+1 < len(ops) {
			i++
			arg = uint32(ops[i])*0x9E3779B1 ^ uint32(i)*0x85EBCA77
		}
		now += uint64(op >> 5)
		switch op % 8 {
		case 0, 1, 2:
			core := int(arg & 3)
			line := uint64(arg>>2) & 63
			a := dram.Address{Bank: int(arg>>8) & 3, Row: uint64(arg>>10) & 3, Col: uint64(arg>>12) % lpr}
			e.Train(core, line, a, now)
			ref.Train(core, line, a, now)
		case 3, 4, 5:
			var w []Window
			for b := 0; b < 4; b++ {
				if arg>>b&1 == 1 {
					w = append(w, Window{Bank: b, Row: uint64(arg>>(4+2*b)) & 3})
				}
			}
			got, gok := e.Take(now, w)
			want, wok := ref.Take(now, func(a dram.Address) bool {
				for _, x := range w {
					if x.Bank == a.Bank && x.Row == a.Row {
						return true
					}
				}
				return false
			})
			if got != want || gok != wok {
				t.Fatalf("op %d: Take(%d, %v) = %+v,%v; oracle %+v,%v", i, now, w, got, gok, want, wok)
			}
		case 6:
			if got, want := e.DropPressure(), ref.DropPressure(); got != want {
				t.Fatalf("op %d: DropPressure shed %d; oracle %d", i, got, want)
			}
		case 7:
			open = !open
		}
		if e.Pending() != len(ref.list) || counters(e) != refCounters(ref) {
			t.Fatalf("op %d: pending %d counters %v; oracle %d %v",
				i, e.Pending(), counters(e), len(ref.list), refCounters(ref))
		}
		got := list(e)
		for j := range got {
			if got[j] != ref.list[j] {
				t.Fatalf("op %d: list[%d] = %+v; oracle %+v", i, j, got[j], ref.list[j])
			}
		}
	}
	checkIndex(t, e)
}

// FuzzMemSideEngine checks the indexed engine against the linear-scan
// oracle on random Train/Take/DropPressure streams.
func FuzzMemSideEngine(f *testing.F) {
	f.Add([]byte{3, 10, 0, 17, 32, 5, 3, 0xff, 64, 1, 3, 0x0f})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{7, 31, 0, 1, 0, 2, 0, 3, 0, 4, 224, 0, 3, 0xff, 6, 0, 0, 9, 3, 0xaa, 7, 0, 0, 5, 3, 0x55})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 400)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkAgainstRef)
}

func BenchmarkMemSidePF(b *testing.B) {
	b.Run("train-take", func(b *testing.B) {
		e := New(Config{}, 64)
		e.SetGate(func() bool { return true })
		e.SetFilter(func(core int, line uint64) bool { return line%7 == 0 })
		r := rand.New(rand.NewSource(1))
		rows := make([]uint64, 1024)
		cols := make([]uint64, 1024)
		lines := make([]uint64, 1024)
		for i := range rows {
			rows[i] = uint64(r.Intn(64))
			cols[i] = uint64(r.Intn(64))
			lines[i] = rows[i]*64 + cols[i]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(rows)
			e.Train(j&3, lines[j], addr(rows[j], cols[j]), uint64(i))
			if i%4 == 3 {
				// One idle window, on the row of a recent trigger.
				e.Take(uint64(i), []Window{{Bank: 2, Row: rows[(j+len(rows)-r.Intn(8))%len(rows)]}})
			}
		}
	})
	// The measured stress8 shape: a full 128-entry list over 8 banks, a
	// Take every tick, a demand trigger every 8 ticks, and an idle bank
	// on a row that holds candidates about 5% of the time. The
	// linear-scan oracle runs the same stream for comparison.
	b.Run("stress8-shape", func(b *testing.B) {
		e := New(Config{MaxAge: ^uint64(0) >> 1}, 64)
		var w [1]Window
		runStress8Shape(b, e.Train, func(now uint64, bank int, row uint64, idle bool) bool {
			w[0] = Window{Bank: bank, Row: row}
			var ws []Window
			if idle {
				ws = w[:]
			}
			_, ok := e.Take(now, ws)
			return ok
		})
	})
	b.Run("stress8-shape-linear-scan", func(b *testing.B) {
		e := newRef(Config{ListSize: 128, Degree: 4, MaxAge: ^uint64(0) >> 1}, 64)
		runStress8Shape(b, e.Train, func(now uint64, bank int, row uint64, idle bool) bool {
			_, ok := e.Take(now, func(a dram.Address) bool { return idle && a.Bank == bank && a.Row == row })
			return ok
		})
	})
}

// runStress8Shape drives one engine, through train and take, with the
// stress8-shaped stream BenchmarkMemSidePF describes, and reports the
// fraction of Takes that returned a candidate.
func runStress8Shape(b *testing.B, train func(int, uint64, dram.Address, uint64),
	take func(now uint64, bank int, row uint64, idle bool) bool) {
	r := rand.New(rand.NewSource(1))
	const n = 4096
	lines := make([]uint64, n)
	addrs := make([]dram.Address, n)
	for i := range addrs {
		bank, row, col := r.Intn(8), uint64(r.Intn(1024)), uint64(r.Intn(60))
		lines[i] = (row*8+uint64(bank))*64 + col
		addrs[i] = dram.Address{Bank: bank, Row: row, Col: col}
	}
	// Per tick: 0 no idle bank, 1 an idle bank on a row with no
	// candidates, 2 an idle bank on a recent trigger's row (back[i]
	// triggers ago).
	kind := make([]uint8, n)
	back := make([]int, n)
	for i := range kind {
		switch {
		case r.Intn(20) == 0:
			kind[i], back[i] = 2, 1+r.Intn(16)
		case r.Intn(2) == 0:
			kind[i] = 1
		}
	}
	for i := 0; i < 64; i++ {
		train(0, lines[n-64+i], addrs[n-64+i], 0)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i / 8
		if i%8 == 0 {
			train(i&7, lines[t%n], addrs[t%n], uint64(i))
		}
		var a dram.Address
		switch kind[i%n] {
		case 1:
			a = dram.Address{Bank: i & 7, Row: 1 << 20}
		case 2:
			a = addrs[(t+n-back[i%n])%n]
		}
		if take(uint64(i), a.Bank, a.Row, kind[i%n] != 0) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "issued/take")
}
