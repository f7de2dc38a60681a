package telemetry

// Series is the epoch time series: one Sample per epoch boundary holding
// every registered metric. Counter-kind metrics are recorded as the delta
// accumulated during the epoch (a rate); gauge-kind metrics as the
// instantaneous value at the boundary.
type Series struct {
	Names []string     // column names, registration order
	Kinds []MetricKind // per-column sampling semantics
	Rows  []Sample
}

// Sample is one epoch snapshot.
type Sample struct {
	Cycle uint64
	Vals  []float64
}

// Sample snapshots every registered metric at cycle now into the series.
// The simulator calls it at each epoch boundary; tests may call it
// directly.
func (t *Telemetry) Sample(now uint64) {
	if t == nil {
		return
	}
	s := &t.series
	if s.Names == nil {
		s.Names = t.Names()
		s.Kinds = make([]MetricKind, len(t.metrics))
		for i, m := range t.metrics {
			s.Kinds[i] = m.kind
		}
	}
	vals := make([]float64, len(t.metrics))
	prevTotal := t.lastTotals()
	for i, m := range t.metrics {
		v := m.read()
		if m.kind == KindCounter && prevTotal != nil {
			vals[i] = v - prevTotal[i]
		} else {
			vals[i] = v
		}
		t.totals[i] = v
	}
	s.Rows = append(s.Rows, Sample{Cycle: now, Vals: vals})
}

// lastTotals returns the cumulative counter readings at the previous
// sample (nil on the first), (re)sizing the scratch slice.
func (t *Telemetry) lastTotals() []float64 {
	if t.totals == nil {
		t.totals = make([]float64, len(t.metrics))
		return nil
	}
	if len(t.totals) != len(t.metrics) {
		// Metrics registered after the first sample: grow, new columns
		// start from zero.
		grown := make([]float64, len(t.metrics))
		copy(grown, t.totals)
		t.totals = grown
	}
	prev := make([]float64, len(t.totals))
	copy(prev, t.totals)
	return prev
}

// SeriesData returns the collected epoch series (empty for nil or
// never-sampled telemetry).
func (t *Telemetry) SeriesData() Series {
	if t == nil {
		return Series{}
	}
	return t.series
}
