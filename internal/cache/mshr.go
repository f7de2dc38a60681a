package cache

// MSHR is a miss-status holding register file for one core's last-level
// cache. Each entry tracks one outstanding line fill; demand loads waiting
// on the line are represented by an opaque waiter count owned by the core
// model. Prefetches also allocate entries (the PADC paper drops a prefetch
// by invalidating its MSHR entry before removing it from the memory
// request buffer).
//
// The file is as bounded as the hardware: all capacity entries are built
// up front and Release returns an entry to a free list, keeping its
// Waiters backing array, so steady-state allocation is free. Outstanding
// lines are found through a fixed open-addressed table over those
// entries: a power-of-two number of slots, at least four times the
// capacity, probed linearly, with backward-shift deletion so no
// tombstones build up. A full file fills at most a quarter of the table,
// so probe runs stay short: with twice the capacity, which a full file
// (the common case under memory pressure) fills half of, a miss cost
// about twice as much.
type MSHR struct {
	capacity int
	slots    []mshrSlot
	shift    uint // home slot = (line * hashMul) >> shift
	free     []*MSHREntry

	// Stats.
	Allocs           uint64
	FullStalls       uint64 // allocation attempts rejected because the file was full
	FullStallsDemand uint64 // ... of which the requester was a demand load
	FullStallsPref   uint64 // ... of which the requester was a prefetch
	HighWater        int    // peak simultaneous outstanding misses
}

// mshrSlot is one table slot; e is nil when the slot is empty.
type mshrSlot struct {
	line uint64
	e    *MSHREntry
}

// hashMul is the Fibonacci-hashing multiplier: the top bits of
// line*hashMul spread consecutive lines across the table.
const hashMul = 0x9e3779b97f4a7c15

// MSHREntry tracks one outstanding miss. An entry is valid until its line
// is Released; the file then reuses it for a later Allocate.
type MSHREntry struct {
	LineAddr uint64
	Prefetch bool // still a pure prefetch (no demand has merged into it)
	// Waiters identifies the demand loads blocked on this fill as
	// (core, sequence) pairs packed by the simulator.
	Waiters []Waiter
}

// Waiter identifies one load blocked on a fill.
type Waiter struct {
	Core int
	Seq  uint64
}

// NewMSHR builds an MSHR file with the given number of entries.
func NewMSHR(capacity int) *MSHR {
	capacity = max(capacity, 0)
	bits := uint(1)
	for 1<<bits < 4*capacity {
		bits++
	}
	m := &MSHR{
		capacity: capacity,
		slots:    make([]mshrSlot, 1<<bits),
		shift:    64 - bits,
		free:     make([]*MSHREntry, capacity),
	}
	// Each entry's waiter slots cover all but the deepest merges onto one
	// line; a deeper merge grows that entry's array once, and Release
	// keeps it.
	slab := make([]MSHREntry, capacity)
	waiters := make([]Waiter, capacity*waiterSlots)
	for i := range slab {
		lo := i * waiterSlots
		slab[i].Waiters = waiters[lo:lo:(lo + waiterSlots)]
		m.free[i] = &slab[i]
	}
	return m
}

// waiterSlots is the waiter capacity each entry starts with.
const waiterSlots = 32

// home returns the slot where probing for lineAddr starts.
func (m *MSHR) home(lineAddr uint64) int { return int((lineAddr * hashMul) >> m.shift) }

// find returns the slot holding lineAddr, or the empty slot that ends its
// probe sequence. The table is never full, so the probe terminates.
func (m *MSHR) find(lineAddr uint64) int {
	mask := len(m.slots) - 1
	i := m.home(lineAddr)
	for m.slots[i].e != nil && m.slots[i].line != lineAddr {
		i = (i + 1) & mask
	}
	return i
}

// Capacity returns the entry count the file was built with.
func (m *MSHR) Capacity() int { return m.capacity }

// Len returns the number of outstanding misses.
func (m *MSHR) Len() int { return m.capacity - len(m.free) }

// Full reports whether no further misses can be tracked.
func (m *MSHR) Full() bool { return len(m.free) == 0 }

// Lookup returns the outstanding entry for lineAddr, or nil.
func (m *MSHR) Lookup(lineAddr uint64) *MSHREntry { return m.slots[m.find(lineAddr)].e }

// Allocate creates an entry for lineAddr with no waiters. It returns nil
// if the file is full or the line is already outstanding (callers merge
// via Lookup).
func (m *MSHR) Allocate(lineAddr uint64, prefetch bool) *MSHREntry {
	if m.Full() {
		m.NoteFullStall(prefetch)
		return nil
	}
	i := m.find(lineAddr)
	if m.slots[i].e != nil {
		return nil
	}
	e := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	e.LineAddr, e.Prefetch = lineAddr, prefetch
	m.slots[i] = mshrSlot{line: lineAddr, e: e}
	m.Allocs++
	m.HighWater = max(m.HighWater, m.Len())
	return e
}

// NoteFullStall books one allocation the owner skipped because the file
// was full, split by requester type. Owners that check Full before
// calling Allocate use this so the stall statistics stay complete.
func (m *MSHR) NoteFullStall(prefetch bool) {
	m.FullStalls++
	if prefetch {
		m.FullStallsPref++
	} else {
		m.FullStallsDemand++
	}
}

// Release removes the entry for lineAddr (fill completed or prefetch
// dropped) and returns it to the free list with its waiters cleared. It
// is a no-op if the line is not outstanding.
func (m *MSHR) Release(lineAddr uint64) {
	i := m.find(lineAddr)
	e := m.slots[i].e
	if e == nil {
		return
	}
	// Backward-shift delete: pull later members of the probe run into the
	// hole unless that would move one before its home slot.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].e != nil; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].line))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrSlot{}
	e.Waiters = e.Waiters[:0]
	m.free = append(m.free, e)
}
