// Package workload defines the synthetic benchmark suite that stands in
// for the paper's 55 SPEC CPU 2000/2006 benchmarks. Each named profile is
// tuned to its paper counterpart's class from Table 5:
//
//	class 0 — prefetch-insensitive (low MPKI or nothing to prefetch)
//	class 1 — prefetch-friendly (long streams, high accuracy)
//	class 2 — prefetch-unfriendly (short deceptive bursts that train the
//	          stream prefetcher and die, or phase-unstable accuracy)
//
// The knobs are the statistical properties the PADC mechanisms actually
// respond to: memory intensity (MemEvery), working-set size vs. cache
// size, stream length (which sets prefetch accuracy), dependence chains
// (which set memory-level parallelism) and phase behavior.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"padc/internal/trace"
)

// Class labels the paper's three benchmark categories.
type Class int

const (
	Insensitive Class = iota // class 0
	Friendly                 // class 1
	Unfriendly               // class 2
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Insensitive:
		return "class0"
	case Friendly:
		return "class1"
	case Unfriendly:
		return "class2"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Profile is one synthetic benchmark.
type Profile struct {
	Name  string
	Class Class
	Gen   trace.Gen
}

const (
	wsHuge  = 1 << 21 // 128MB of lines: streaming working sets
	wsBig   = 1 << 19 // 32MB: far beyond any L2
	wsSmall = 1 << 11 // 128KB: fits the 512KB L2 (class-0 reuse)
)

func seedOf(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h | 1
}

// stream builds a long-stream pattern: the prefetch-friendly archetype.
func stream(name string, streams, length uint64) trace.Pattern {
	return trace.StreamPattern{Seed: seedOf(name), Streams: streams, StreamLen: length, WSLines: wsHuge, StrideLn: 1}
}

// burst builds the prefetch-unfriendly archetype: sequences just long
// enough to train the stream prefetcher before dying.
func burst(name string, streams, length uint64) trace.Pattern {
	return trace.StreamPattern{Seed: seedOf(name), Streams: streams, StreamLen: length, WSLines: wsBig, StrideLn: 1}
}

func random(name string) trace.Pattern {
	return trace.RandomPattern{Seed: seedOf(name), WSLines: wsBig}
}

func chase(name string) trace.Pattern {
	return trace.RandomPattern{Seed: seedOf(name), WSLines: wsBig, Dep: true}
}

// chaseWS is a pointer chase over an explicit working-set size; mid-size
// sets (1-8MB) give the paper's §6.9 cache-size sensitivity.
func chaseWS(name string, ws uint64) trace.Pattern {
	return trace.RandomPattern{Seed: seedOf(name), WSLines: ws, Dep: true}
}

// burstWS is a deceptive-burst pattern over an explicit working set.
func burstWS(name string, streams, length, ws uint64) trace.Pattern {
	return trace.StreamPattern{Seed: seedOf(name), Streams: streams, StreamLen: length, WSLines: ws, StrideLn: 1}
}

func loop(name string, length uint64) trace.Pattern {
	return trace.LoopPattern{Seed: seedOf(name), Len: length, WSLines: wsSmall}
}

func mix(name string, a, b trace.Pattern, numA, den uint64) trace.Pattern {
	return trace.MixPattern{Seed: seedOf(name), A: a, B: b, NumA: numA, Den: den}
}

func gen(p trace.Pattern, memEvery, repeat uint64) trace.Gen {
	return trace.Gen{Pattern: p, MemEvery: memEvery, Repeat: repeat}
}

// Suite returns the 28 named profiles mirroring the paper's Table 5.
// MemEvery is tuned so each profile's no-prefetch MPKI lands near the
// paper's, and stream length so its stream-prefetcher accuracy does (see
// the workload calibration test): ACC ≈ (L-3)/(L+Distance) for a stream of
// L lines under the ramping prefetcher.
func Suite() []Profile {
	return []Profile{
		// --- class 1: prefetch-friendly ----------------------------------
		// Stream counts at or above the bank count make row locality
		// policy-sensitive (the paper's §3 mechanism); longer streams raise
		// prefetch accuracy.
		{"swim", Friendly, gen(stream("swim", 10, 8192), 3, 12)},
		{"libquantum", Friendly, gen(stream("libquantum", 12, 32768), 4, 18)},
		{"bwaves", Friendly, gen(stream("bwaves", 9, 16384), 4, 13)},
		{"leslie3d", Friendly, gen(stream("leslie3d", 8, 560), 3, 16)},
		{"lbm", Friendly, gen(stream("lbm", 8, 1100), 3, 16)},
		{"soplex", Friendly, gen(mix("soplex", stream("soplex", 8, 280), random("soplex.r"), 9, 10), 3, 14)},
		{"GemsFDTD", Friendly, gen(stream("GemsFDTD", 12, 700), 4, 16)},
		{"mgrid", Friendly, gen(stream("mgrid", 4, 2600), 6, 26)},
		{"lucas", Friendly, gen(stream("lucas", 4, 480), 6, 16)},
		{"facerec", Friendly, gen(stream("facerec", 4, 85), 6, 48)},
		{"equake", Friendly, gen(stream("equake", 8, 1500), 5, 10)},
		{"wrf", Friendly, gen(stream("wrf", 4, 1300), 6, 21)},
		{"sphinx3", Friendly, gen(stream("sphinx3", 6, 80), 6, 13)},
		{"cactusADM", Friendly, gen(stream("cactusADM", 4, 56), 6, 37)},
		{"gcc", Friendly, gen(mix("gcc", loop("gcc", 1024), stream("gcc.s", 2, 36), 5, 10), 4, 20)},
		{"astar", Friendly, gen(mix("astar", chaseWS("astar", 36864), stream("astar.s", 2, 20), 7, 10), 5, 20)},
		{"mcf", Friendly, gen(mix("mcf", chase("mcf"), burst("mcf.s", 2, 34), 7, 10), 3, 10)},
		{"zeusmp", Friendly, gen(mix("zeusmp", stream("zeusmp", 4, 80), random("zeusmp.r"), 6, 10), 6, 36)},
		// --- class 2: prefetch-unfriendly --------------------------------
		{"art", Unfriendly, gen(mix("art", burst("art.b", 6, 8), random("art.r"), 85, 100), 2, 6)},
		{"galgel", Unfriendly, gen(burstWS("galgel", 4, 8, 40960), 6, 39)},
		{"ammp", Unfriendly, gen(burst("ammp", 4, 4), 8, 80)},
		{"xalancbmk", Unfriendly, gen(mix("xalancbmk", chaseWS("xalancbmk", 24576), burst("xalancbmk.b", 4, 4), 5, 10), 8, 60)},
		{"milc", Unfriendly, gen(trace.PhasedPattern{
			A:    stream("milc.a", 4, 2048),
			B:    burst("milc.b", 4, 3),
			ALen: 5_000,
			BLen: 15_000,
		}, 3, 11)},
		{"omnetpp", Unfriendly, gen(mix("omnetpp", chaseWS("omnetpp", 49152), burst("omnetpp.b", 4, 5), 4, 10), 5, 20)},
		// --- class 0: prefetch-insensitive -------------------------------
		{"eon", Insensitive, gen(loop("eon", 512), 5, 1)},
		{"gamess", Insensitive, gen(loop("gamess", 768), 5, 1)},
		{"sjeng", Insensitive, gen(loop("sjeng", 1024), 6, 1)},
		{"hmmer", Insensitive, gen(mix("hmmer", loop("hmmer", 1536), random("hmmer.r"), 127, 128), 4, 1)},
	}
}

// Extended returns the full 55-profile suite: the 28 named profiles plus
// 27 parameter-space variants, mirroring the paper's gmean55 population
// (29 of 55 prefetch-friendly).
func Extended() []Profile {
	out := Suite()
	type v struct {
		name  string
		class Class
		g     trace.Gen
	}
	var variants []v
	for i := 0; i < 11; i++ { // friendly variants
		name := fmt.Sprintf("syn-f%02d", i)
		variants = append(variants, v{name, Friendly,
			gen(stream(name, uint64(4+i), uint64(256<<(i%5))), uint64(3+i%4), uint64(10+5*i))})
	}
	for i := 0; i < 8; i++ { // unfriendly variants
		name := fmt.Sprintf("syn-u%02d", i)
		variants = append(variants, v{name, Unfriendly,
			gen(mix(name, burst(name+".b", uint64(2+i%4), uint64(4+3*i)), random(name+".r"), 6, 10), uint64(3+i%4), uint64(8+8*i))})
	}
	for i := 0; i < 8; i++ { // insensitive variants
		name := fmt.Sprintf("syn-i%02d", i)
		variants = append(variants, v{name, Insensitive,
			gen(loop(name, uint64(384+128*i)), uint64(4+i%4), 1)})
	}
	for _, x := range variants {
		out = append(out, Profile{Name: x.name, Class: x.class, Gen: x.g})
	}
	return out
}

// ByName returns the named profile from the extended suite, or a
// "cacheset-<n>" member of the CacheSensitive family (a 1.5MB shuffled
// loop; the §6.9 cache-size sweep's signal). The family stays out of
// Names, so random mix draws never pick it.
func ByName(name string) (Profile, error) {
	for _, p := range Extended() {
		if p.Name == name {
			return p, nil
		}
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(name, cacheSetPrefix)); err == nil && n >= 0 &&
		name == cacheSetPrefix+strconv.Itoa(n) {
		return CacheSensitive(name, 24576), nil
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// cacheSetPrefix names ByName's CacheSensitive family.
const cacheSetPrefix = "cacheset-"

// MustByName is ByName for static names in examples and benches.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the sorted names of the extended suite.
func Names() []string {
	ps := Extended()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// CacheSensitive builds a profile whose working set cycles repeatedly
// through wsLines cache lines in a shuffled order: it thrashes any cache
// smaller than the working set and fits in any larger one, giving the
// §6.9 cache-size sweep its signal at simulation-friendly run lengths.
func CacheSensitive(name string, wsLines uint64) Profile {
	return Profile{
		Name:  name,
		Class: Insensitive,
		Gen: trace.Gen{
			Pattern:  trace.ShuffledLoopPattern{Seed: seedOf(name), Len: wsLines, WSLines: wsLines * 2},
			MemEvery: 2, // intense, so several working-set laps fit in a short run
		},
	}
}

// Mixes builds n deterministic multiprogrammed workloads of k benchmarks
// each, drawn from the extended suite — the paper's randomly chosen 2-, 4-
// and 8-core combinations.
func Mixes(n, k int, seed uint64) [][]Profile {
	suite := Extended()
	out := make([][]Profile, n)
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range out {
		mixp := make([]Profile, k)
		for j := range mixp {
			mixp[j] = suite[next()%uint64(len(suite))]
		}
		out[i] = mixp
	}
	return out
}
