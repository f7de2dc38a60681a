package cpu

// Total returns the cycles accounted (equals the profiled cycle count).
func (a *CycleAccount) Total() uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}
