// Package telemetry is the simulator's cycle-level observability layer:
// a metric registry (counters, gauges, fixed-bucket histograms registered
// by name), an epoch sampler that snapshots every registered metric into a
// per-run time series, and a bounded ring of typed trace events with CSV,
// JSONL and Chrome trace_event exporters.
//
// The whole package is disabled-by-default and nil-safe: every method has
// a nil-receiver fast path. Metrics are read functions (CounterFunc,
// GaugeFunc) over counters the subsystems keep anyway, registered once at
// construction and called only when the epoch sampler or an exporter
// reads them. Events arrive through the simulator's probe
// (internal/telemetry/probe), to which a Telemetry subscribes: Observe
// records each one into the ring as it happens and books completions
// into the dram/service_cycles histogram.
//
// Metric names are slash-scoped, instance-indexed strings following the
// DROPLET convention ("memctrl0/drops", "dram0/row_conflicts",
// "core3/acc_estimate"); see README.md's Telemetry section for the full
// names the simulator registers.
package telemetry

import (
	"fmt"
	"sort"
)

// MetricKind distinguishes how the epoch sampler treats a metric.
type MetricKind uint8

const (
	// KindCounter metrics are monotonically increasing; the sampler
	// records the delta accumulated during each epoch.
	KindCounter MetricKind = iota
	// KindGauge metrics are instantaneous; the sampler records the value
	// at the epoch boundary.
	KindGauge
)

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper edges; one implicit overflow bucket catches everything beyond the
// last bound. A nil *Histogram is a valid no-op.
type Histogram struct {
	name   string
	bounds []uint64
	counts []uint64
	sum    uint64
}

// Observe books one observation of v.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
}

// Sum returns the summed observed values (0 for a nil histogram), the
// Prometheus exposition's <name>_sum.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 {
	if h == nil {
		return 0
	}
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// metric is one registered, sampleable metric.
type metric struct {
	name string
	kind MetricKind
	// Exactly one of counterFn / gaugeFn is set.
	counterFn func() uint64
	gaugeFn   func() float64
}

func (m *metric) read() float64 {
	switch {
	case m.counterFn != nil:
		return float64(m.counterFn())
	default:
		return m.gaugeFn()
	}
}

// Options configures a Telemetry instance.
type Options struct {
	// EpochCycles is the sampling period of the epoch time series; 0
	// disables sampling (metrics and events still work).
	EpochCycles uint64
	// EventCapacity bounds the event ring; 0 uses DefaultEventCapacity,
	// negative disables event recording.
	EventCapacity int
}

// DefaultEventCapacity is the event-ring size when Options leaves it zero.
const DefaultEventCapacity = 1 << 16

// Telemetry is one run's metric registry, epoch series and event ring.
// A nil *Telemetry is a valid disabled instance: every method no-ops.
type Telemetry struct {
	opts    Options
	metrics []*metric
	byName  map[string]*metric
	hists   []*Histogram

	series Series
	totals []float64 // cumulative counter readings at the last sample
	ring   ring
	svc    *Histogram // dram/service_cycles, fed by Observe
}

// New builds an enabled Telemetry with the given options.
func New(opts Options) *Telemetry {
	cap := opts.EventCapacity
	if cap == 0 {
		cap = DefaultEventCapacity
	}
	if cap < 0 {
		cap = 0
	}
	t := &Telemetry{opts: opts, byName: make(map[string]*metric)}
	t.ring.init(cap)
	// Arrival-to-fill service time, the Figure 4(a) axis.
	t.svc = t.Histogram("dram/service_cycles", []uint64{200, 400, 800, 1600, 3200})
	return t
}

// EpochCycles returns the sampling period (0 when sampling is off or the
// receiver is nil).
func (t *Telemetry) EpochCycles() uint64 {
	if t == nil {
		return 0
	}
	return t.opts.EpochCycles
}

func (t *Telemetry) register(m *metric) {
	if _, dup := t.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	t.byName[m.name] = m
	t.metrics = append(t.metrics, m)
}

// CounterFunc registers a counter metric backed by an existing
// monotonically-increasing source (a stats field a subsystem already
// maintains), avoiding double counting on the hot path.
func (t *Telemetry) CounterFunc(name string, fn func() uint64) {
	if t == nil {
		return
	}
	t.register(&metric{name: name, kind: KindCounter, counterFn: fn})
}

// GaugeFunc registers an instantaneous metric sampled at epoch
// boundaries (occupancy, accuracy estimate, rate).
func (t *Telemetry) GaugeFunc(name string, fn func() float64) {
	if t == nil {
		return
	}
	t.register(&metric{name: name, kind: KindGauge, gaugeFn: fn})
}

// Histogram registers a fixed-bucket histogram with the given inclusive
// upper bounds (must be ascending); an overflow bucket is implicit.
func (t *Telemetry) Histogram(name string, bounds []uint64) *Histogram {
	if t == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	t.hists = append(t.hists, h)
	return h
}

// Names returns the registered metric names in registration order.
func (t *Telemetry) Names() []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t.metrics))
	for i, m := range t.metrics {
		out[i] = m.name
	}
	return out
}

// Value returns the current value of the named metric (counters report the
// cumulative count) and whether it exists.
func (t *Telemetry) Value(name string) (float64, bool) {
	if t == nil {
		return 0, false
	}
	m, ok := t.byName[name]
	if !ok {
		return 0, false
	}
	return m.read(), true
}
