package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the service-side counterpart of the simulator registry:
// long-running processes (the sweep service) need metrics that many
// goroutines update concurrently and that carry labels (one series per
// campaign). The simulator registry stays single-threaded and unlabeled
// on purpose — it only reads each subsystem's own counters at epoch
// boundaries — so the live registry is a separate, lock-free-on-update type rather
// than a retrofit.

// LiveMetric is one labeled series: a float64 updated atomically, usable
// as either a counter (Add/Inc) or a gauge (Set). The zero value is ready
// to use; a nil *LiveMetric no-ops like the simulator metrics.
type LiveMetric struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Add atomically adds delta (CAS loop; safe from any goroutine).
func (m *LiveMetric) Add(delta float64) {
	if m == nil {
		return
	}
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (m *LiveMetric) Inc() { m.Add(1) }

// Set atomically replaces the value (gauge semantics).
func (m *LiveMetric) Set(v float64) {
	if m == nil {
		return
	}
	m.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (m *LiveMetric) Value() float64 {
	if m == nil {
		return 0
	}
	return math.Float64frombits(m.bits.Load())
}

// LiveVec is one metric family: a name, a kind, a fixed label schema, and
// one LiveMetric per label-value combination, created on first use.
type LiveVec struct {
	name   string
	help   string
	kind   MetricKind
	labels []string

	mu     sync.Mutex
	series map[string]*LiveMetric
	order  []string // insertion order of series keys
}

// With returns the series for the given label values (one value per label
// name passed at registration, in the same order), creating it at zero on
// first use. It panics on arity mismatch — that is a programming error,
// like a duplicate metric name in the simulator registry.
func (v *LiveVec) With(values ...string) *LiveMetric {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.series[key]
	if !ok {
		m = &LiveMetric{}
		v.series[key] = m
		v.order = append(v.order, key)
	}
	return m
}

// LiveHist is one labeled histogram series: cumulative bucket counts, a
// sum, and an observation count, all updated atomically. The zero value
// is not usable — histograms carry their bucket layout, so they are only
// built through HistVec.With.
type LiveHist struct {
	buckets []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one value (CAS loop on the sum; safe from any
// goroutine).
func (h *LiveHist) Observe(v float64) {
	if h == nil {
		return
	}
	// inf first, buckets second; the writer reads buckets before inf, and
	// Go atomics are sequentially consistent, so a scrape that sees a
	// bucket increment always sees its observation counted — cumulative
	// bucket values never exceed the le="+Inf" count mid-scrape.
	h.inf.Add(1)
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistVec is one histogram family: a fixed bucket layout shared by every
// labeled series, created on first use like LiveVec.
type HistVec struct {
	name    string
	help    string
	labels  []string
	buckets []float64

	mu     sync.Mutex
	series map[string]*LiveHist
	order  []string
}

// With returns the histogram series for the given label values, creating
// it on first use. Arity mismatches panic, mirroring LiveVec.
func (v *HistVec) With(values ...string) *LiveHist {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[key]
	if !ok {
		h = &LiveHist{buckets: v.buckets, counts: make([]atomic.Uint64, len(v.buckets))}
		v.series[key] = h
		v.order = append(v.order, key)
	}
	return h
}

// DefaultDurationBuckets is the latency bucket layout (seconds) the
// service's request-duration histograms use: sub-millisecond health
// probes through multi-second artifact merges.
var DefaultDurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}

// promFamily is one exposable metric family (a LiveVec or a HistVec).
type promFamily interface {
	writeProm(bw *bufio.Writer)
}

// PromRegistry is a concurrency-safe registry of labeled live metrics
// with a Prometheus text-exposition writer. Unlike the simulator registry
// it may be updated from any goroutine at any time, which is what a
// network service needs.
type PromRegistry struct {
	mu   sync.Mutex
	fams []promFamily
	seen map[string]bool
}

// NewPromRegistry builds an empty live registry.
func NewPromRegistry() *PromRegistry {
	return &PromRegistry{seen: make(map[string]bool)}
}

// reserve claims a family name, panicking on duplicates.
func (r *PromRegistry) reserve(name string) {
	if r.seen[name] {
		panic(fmt.Sprintf("telemetry: duplicate live metric %q", name))
	}
	r.seen[name] = true
}

func (r *PromRegistry) register(name, help string, kind MetricKind, labels []string) *LiveVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserve(name)
	v := &LiveVec{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*LiveMetric),
	}
	r.fams = append(r.fams, v)
	return v
}

// Histogram registers a histogram family with the given bucket upper
// bounds (ascending; the +Inf bucket is implicit). A nil buckets slice
// uses DefaultDurationBuckets.
func (r *PromRegistry) Histogram(name, help string, buckets []float64, labels ...string) *HistVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefaultDurationBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending: %v", name, buckets))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserve(name)
	v := &HistVec{
		name:    name,
		help:    help,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*LiveHist),
	}
	r.fams = append(r.fams, v)
	return v
}

// Counter registers a monotonically-increasing family; callers promise to
// only Add/Inc its series. Name must be Prometheus-legal already (the
// live registry does not flatten like promName; service metric names are
// chosen, not derived).
func (r *PromRegistry) Counter(name, help string, labels ...string) *LiveVec {
	return r.register(name, help, KindCounter, labels)
}

// Gauge registers an instantaneous family; series are usually Set.
func (r *PromRegistry) Gauge(name, help string, labels ...string) *LiveVec {
	return r.register(name, help, KindGauge, labels)
}

// WritePrometheus writes every family in registration order, each family's
// series sorted by label values, in the Prometheus text exposition format.
func (r *PromRegistry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r == nil {
		return bw.Flush()
	}
	r.mu.Lock()
	fams := append([]promFamily(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		f.writeProm(bw)
	}
	return bw.Flush()
}

// writeEscaped writes one label value using only the escapes the
// exposition format defines for quoted label values: backslash, double
// quote, and line feed. Anything else (%q's \t, \r, \xNN…) is illegal to
// a strict Prometheus parser.
func writeEscaped(bw *bufio.Writer, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			bw.WriteString(`\\`)
		case '"':
			bw.WriteString(`\"`)
		case '\n':
			bw.WriteString(`\n`)
		default:
			bw.WriteByte(c)
		}
	}
}

// writeLabels writes a {name="value",...} block; extra appends one more
// pair (the histogram writer's le label) without rebuilding slices.
func writeLabels(bw *bufio.Writer, labels []string, key string, extraName, extraVal string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	bw.WriteByte('{')
	vals := strings.Split(key, "\x00")
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l)
		bw.WriteString(`="`)
		writeEscaped(bw, vals[i])
		bw.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(extraName)
		bw.WriteString(`="`)
		writeEscaped(bw, extraVal)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (v *LiveVec) writeProm(bw *bufio.Writer) {
	kind := "counter"
	if v.kind == KindGauge {
		kind = "gauge"
	}
	if v.help != "" {
		fmt.Fprintf(bw, "# HELP %s %s\n", v.name, v.help)
	}
	fmt.Fprintf(bw, "# TYPE %s %s\n", v.name, kind)
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	sort.Strings(keys)
	for _, key := range keys {
		m := v.series[key]
		bw.WriteString(v.name)
		writeLabels(bw, v.labels, key, "", "")
		bw.WriteByte(' ')
		bw.WriteString(formatPromFloat(m.Value()))
		bw.WriteByte('\n')
	}
	v.mu.Unlock()
}

func (v *HistVec) writeProm(bw *bufio.Writer) {
	if v.help != "" {
		fmt.Fprintf(bw, "# HELP %s %s\n", v.name, v.help)
	}
	fmt.Fprintf(bw, "# TYPE %s histogram\n", v.name)
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	sort.Strings(keys)
	for _, key := range keys {
		h := v.series[key]
		// Buckets are cumulative: each le bound includes every smaller one,
		// and le="+Inf" equals the observation count.
		cum := uint64(0)
		for i, ub := range h.buckets {
			cum += h.counts[i].Load()
			bw.WriteString(v.name)
			bw.WriteString("_bucket")
			writeLabels(bw, v.labels, key, "le", formatPromFloat(ub))
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(cum, 10))
			bw.WriteByte('\n')
		}
		count := h.inf.Load()
		bw.WriteString(v.name)
		bw.WriteString("_bucket")
		writeLabels(bw, v.labels, key, "le", "+Inf")
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(count, 10))
		bw.WriteByte('\n')
		bw.WriteString(v.name)
		bw.WriteString("_sum")
		writeLabels(bw, v.labels, key, "", "")
		bw.WriteByte(' ')
		bw.WriteString(formatPromFloat(math.Float64frombits(h.sumBits.Load())))
		bw.WriteByte('\n')
		bw.WriteString(v.name)
		bw.WriteString("_count")
		writeLabels(bw, v.labels, key, "", "")
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(count, 10))
		bw.WriteByte('\n')
	}
	v.mu.Unlock()
}
