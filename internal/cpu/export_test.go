package cpu

// Total returns the cycles accounted (equals the profiled cycle count).
func (a *CycleAccount) Total() uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// waiting counts the loads on the producer-waiters list.
func (c *Core) waiting() int {
	n := 0
	for s := c.waiters.head; s != noSlot; s = c.next[s] {
		n++
	}
	return n
}
