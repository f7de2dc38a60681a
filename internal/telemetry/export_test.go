package telemetry

import "io"

// WriteChromeTrace is WriteChromeTraceWith with nothing interleaved.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	return t.WriteChromeTraceWith(w, nil)
}

// Column returns the sampled values of the named metric across all
// epochs, or nil if the metric was never sampled.
func (s Series) Column(name string) []float64 {
	col := -1
	for i, n := range s.Names {
		if n == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}
	out := make([]float64, 0, len(s.Rows))
	for _, r := range s.Rows {
		if col < len(r.Vals) {
			out = append(out, r.Vals[col])
		}
	}
	return out
}
