package lifecycle

// Spans returns the total spans folded into this breakdown.
func (b *CoreBreakdown) Spans() uint64 {
	var n uint64
	for c := Class(0); c < NumClasses; c++ {
		n += b.Total(c).Count
	}
	return n
}
