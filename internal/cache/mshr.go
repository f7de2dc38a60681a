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
// Waiters backing array, so steady-state allocation is free.
type MSHR struct {
	capacity int
	entries  map[uint64]*MSHREntry
	free     []*MSHREntry

	// Stats.
	Allocs           uint64
	FullStalls       uint64 // allocation attempts rejected because the file was full
	FullStallsDemand uint64 // ... of which the requester was a demand load
	FullStallsPref   uint64 // ... of which the requester was a prefetch
	HighWater        int    // peak simultaneous outstanding misses
}

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
	m := &MSHR{
		capacity: capacity,
		entries:  make(map[uint64]*MSHREntry, 2*capacity),
		free:     make([]*MSHREntry, capacity),
	}
	// The entry map is sized well past capacity so insert/delete churn
	// seldom forces it to grow. Each entry's waiter slots cover all but the
	// deepest merges onto one line; a deeper merge grows that entry's
	// array once, and Release keeps it.
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

// Capacity returns the entry count the file was built with.
func (m *MSHR) Capacity() int { return m.capacity }

// Len returns the number of outstanding misses.
func (m *MSHR) Len() int { return len(m.entries) }

// Full reports whether no further misses can be tracked.
func (m *MSHR) Full() bool { return len(m.entries) >= m.capacity }

// Lookup returns the outstanding entry for lineAddr, or nil.
func (m *MSHR) Lookup(lineAddr uint64) *MSHREntry { return m.entries[lineAddr] }

// Allocate creates an entry for lineAddr with no waiters. It returns nil
// if the file is full or the line is already outstanding (callers merge
// via Lookup).
func (m *MSHR) Allocate(lineAddr uint64, prefetch bool) *MSHREntry {
	if m.Full() {
		m.NoteFullStall(prefetch)
		return nil
	}
	if _, ok := m.entries[lineAddr]; ok {
		return nil
	}
	e := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	e.LineAddr, e.Prefetch = lineAddr, prefetch
	m.entries[lineAddr] = e
	m.Allocs++
	if len(m.entries) > m.HighWater {
		m.HighWater = len(m.entries)
	}
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
	e, ok := m.entries[lineAddr]
	if !ok {
		return
	}
	delete(m.entries, lineAddr)
	e.Waiters = e.Waiters[:0]
	m.free = append(m.free, e)
}
