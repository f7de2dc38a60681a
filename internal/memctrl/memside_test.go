package memctrl

import (
	"testing"

	"padc/internal/dram"
	"padc/internal/memctrl/memsidepf"
	"padc/internal/telemetry"
)

// memsideCtrl builds a one-bank controller with an attached memory-side
// engine and the bank's row 5 held open.
func memsideCtrl(slots int) (*Controller, *memsidepf.Engine) {
	ch := oneBank()
	ch.Banks[0].OpenRow = 5
	c := NewStack(DemandPrefEqual.Stack(), ch, slots, nil)
	eng := memsidepf.New(memsidepf.Config{}, 64)
	c.AttachMemSide(eng)
	return c, eng
}

func TestMemSideAdmitsIntoIdleRowHitWindow(t *testing.T) {
	c, eng := memsideCtrl(16)
	eng.Train(3, 100, dram.Address{Bank: 0, Row: 5, Col: 0}, 1)
	// The run loop ticks an empty controller only when NextEvent names a
	// cycle, so waiting candidates must make the very next one live.
	if next := c.NextEvent(1); next != 2 {
		t.Fatalf("NextEvent with pending candidates = %d, want now+1", next)
	}

	// One candidate is admitted per idle tick, each a row hit.
	c.Tick(2, 8)
	if c.Occupancy() != 1 || eng.Issued != 1 {
		t.Fatalf("occupancy=%d issued=%d after one idle tick, want 1/1", c.Occupancy(), eng.Issued)
	}
	if !c.HasPrefetches() {
		t.Fatal("a buffered memory-side prefetch must arm the APD scan")
	}

	done := drain(c, 4)
	for _, r := range done {
		if !r.MemSide || !r.Prefetch || !r.WasPref || r.Core != 3 {
			t.Fatalf("completed request misclassified: %+v", r)
		}
		if r.RowState != dram.RowHit {
			t.Fatalf("memory-side prefetch must issue as a row hit, got %v", r.RowState)
		}
	}
	if len(done) != 4 || eng.Issued != 4 {
		t.Fatalf("all 4 candidates should drain: done=%d issued=%d", len(done), eng.Issued)
	}
	if c.HasPrefetches() || c.Occupancy() != 0 {
		t.Fatal("drained controller still reports memory-side work")
	}
}

func TestMemSideRejectsClosedRowAndBusyBank(t *testing.T) {
	c, eng := memsideCtrl(16)
	// Row 9 does not match the open row: never admitted.
	eng.Train(0, 200, dram.Address{Bank: 0, Row: 9, Col: 0}, 1)
	for now := uint64(2); now < 10; now++ {
		c.Tick(now, 8)
	}
	if eng.Issued != 0 || c.Occupancy() != 0 {
		t.Fatalf("row-conflict candidate admitted: issued=%d occ=%d", eng.Issued, c.Occupancy())
	}

	// A waiting demand occupies the bank's bucket: the window is not idle.
	if !c.Enqueue(req(0, 1, 5, false)) {
		t.Fatal("demand enqueue failed")
	}
	eng.Train(0, 300, dram.Address{Bank: 0, Row: 5, Col: 0}, 10)
	c.Tick(11, 8) // demand wins the bank; no admission this tick
	if eng.Issued != 0 {
		t.Fatal("memory-side prefetch admitted into a contended bank")
	}
}

func TestMemSidePressureDropsList(t *testing.T) {
	c, eng := memsideCtrl(4)
	eng.Train(0, 100, dram.Address{Bank: 0, Row: 5, Col: 0}, 1)
	// Three demands out of four slots crosses the 0.5 pressure fraction.
	for i := uint64(0); i < 3; i++ {
		if !c.Enqueue(req(0, 10+i, 7, false)) {
			t.Fatal("demand enqueue failed")
		}
	}
	// The demands themselves train more candidates on admission; whatever
	// is queued when pressure trips must all be shed.
	queued := uint64(eng.Pending())
	before := c.Dropped
	c.Tick(2, 8)
	if eng.DroppedPressure < queued || eng.Pending() != 0 {
		t.Fatalf("pressure must shed the whole list: droppedPressure=%d pending=%d",
			eng.DroppedPressure, eng.Pending())
	}
	if c.Dropped != before+eng.DroppedPressure {
		t.Fatalf("controller drop counter = %d, want +%d", c.Dropped, eng.DroppedPressure)
	}
	if eng.Issued != 0 {
		t.Fatal("no candidate may issue on a pressure tick")
	}
}

func TestMemSideDropExpiredUsesOwnThreshold(t *testing.T) {
	c, _ := memsideCtrl(16)
	// A waiting memory-side prefetch (as memsidePass admits them) next to
	// a waiting core prefetch.
	if !c.Enqueue(&Request{
		Core: 2, Line: 100, Addr: dram.Address{Bank: 0, Row: 5, Col: 1},
		Prefetch: true, WasPref: true, MemSide: true, Arrival: 1,
	}) {
		t.Fatal("memory-side enqueue failed")
	}
	if !c.Enqueue(req(0, 50, 5, true)) {
		t.Fatal("core prefetch enqueue failed")
	}

	// Memory-side requests age against a 10-cycle limit, core prefetches
	// against 1000: only the memory-side request is shed.
	dropped := c.DropExpired(100, func(r *Request) uint64 {
		if r.MemSide {
			return 10
		}
		return 1000
	})
	if len(dropped) != 1 || !dropped[0].MemSide {
		t.Fatalf("expected exactly the memory-side request dropped, got %v", dropped)
	}
	if c.HasPrefetches() != true {
		t.Fatal("the core-side prefetch is still buffered")
	}
	c2 := c.Occupancy()
	if c2 != 1 {
		t.Fatalf("occupancy after drop = %d, want the surviving core prefetch", c2)
	}
}

// TestMemSideTelemetryPartitionsEnqueued checks that the registered
// memside counters account for every admitted candidate, overflow
// evictions included: enqueued = issued + dropped_overflow +
// dropped_stale + dropped_pressure + pending.
func TestMemSideTelemetryPartitionsEnqueued(t *testing.T) {
	ch := oneBank()
	ch.Banks[0].OpenRow = 5
	c := NewStack(DemandPrefEqual.Stack(), ch, 16, nil)
	eng := memsidepf.New(memsidepf.Config{ListSize: 4, MaxAge: 40}, 64)
	c.AttachMemSide(eng)
	tel := telemetry.New(telemetry.Options{})
	c.Instrument(tel, 0)

	line := uint64(1000)
	for now := uint64(1); now <= 400; now++ {
		switch {
		case now < 200 && now%7 == 0, now > 320 && now%9 == 0:
			// Four candidates per trigger overflow the four-entry list;
			// those on the closed row 9 can only overflow or go stale.
			row := uint64(5)
			if now%2 == 0 {
				row = 9
			}
			eng.Train(0, line, dram.Address{Bank: 0, Row: row}, now)
			line += 16
		case now == 210:
			eng.Train(0, line, dram.Address{Bank: 0, Row: 9}, now) // left to go stale
			line += 16
		case now == 300:
			// A demand burst past half the buffer sheds the list.
			for i := 0; i < 9; i++ {
				c.Enqueue(&Request{Core: 1, Line: line, Addr: dram.Address{Bank: 0, Row: 5, Col: 60}, Arrival: now})
				line += 16
			}
		}
		c.Tick(now, 2)
	}

	v := map[string]uint64{}
	for _, name := range []string{"enqueued", "issued", "dropped_overflow", "dropped_stale", "dropped_pressure", "pending"} {
		x, ok := tel.Value("memctrl0/memside/" + name)
		if !ok {
			t.Fatalf("memside/%s is not registered", name)
		}
		v[name] = uint64(x)
	}
	for _, name := range []string{"issued", "dropped_overflow", "dropped_stale", "dropped_pressure", "pending"} {
		if v[name] == 0 {
			t.Fatalf("the run never exercised memside/%s: %v", name, v)
		}
	}
	if got := v["issued"] + v["dropped_overflow"] + v["dropped_stale"] + v["dropped_pressure"] + v["pending"]; got != v["enqueued"] {
		t.Fatalf("enqueued = %d, but issued + drops + pending = %d: %v", v["enqueued"], got, v)
	}
}
