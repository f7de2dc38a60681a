package prefetch

import (
	"math/rand"
	"slices"
	"testing"
)

// dsEv builds a demand access for DSPatch tests.
func dsEv(line, pc uint64) AccessEvent {
	return AccessEvent{LineAddr: line, PC: pc, Miss: true}
}

// trainRegion walks DSPatch through one region's footprint: the first
// offset is the trigger, the rest accumulate. It returns a copy of the
// trigger's candidates, since later Observe calls reuse the buffer.
func trainRegion(d *DSPatch, base, pc uint64, offs []uint64) []uint64 {
	out := slices.Clone(d.Observe(dsEv(base+offs[0], pc), 64))
	for _, o := range offs[1:] {
		d.Observe(dsEv(base+o, pc), 64)
	}
	return out
}

func TestDSPatchLearnsAndPredicts(t *testing.T) {
	// One page-buffer entry so every new region trains the table with
	// the previous region's footprint immediately.
	d := NewDSPatch(DSPatchConfig{Pages: 1, SPTEntries: 16})
	pc := uint64(0x400)

	if got := trainRegion(d, 0, pc, []uint64{0, 1, 2, 3}); len(got) != 0 {
		t.Fatalf("cold signature should not prefetch: %v", got)
	}
	// Same trigger (PC, offset) in a new region: the learned footprint
	// should be replayed at the new base, minus the trigger line itself.
	got := d.Observe(dsEv(2*RegionLines, pc), 64)
	want := []uint64{2*RegionLines + 1, 2*RegionLines + 2, 2*RegionLines + 3}
	if len(got) != len(want) {
		t.Fatalf("predicted lines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predicted lines = %v, want %v", got, want)
		}
	}
	if d.Issued != 3 || d.CovPSelected != 1 {
		t.Fatalf("Issued=%d CovPSelected=%d, want 3/1", d.Issued, d.CovPSelected)
	}
}

func TestDSPatchBiasFollowsHeadroom(t *testing.T) {
	d := NewDSPatch(DSPatchConfig{Pages: 1, SPTEntries: 16})
	pc := uint64(0x400)
	offs := []uint64{0, 1, 2, 3}
	trainRegion(d, 0, pc, offs)
	trainRegion(d, 1*RegionLines, pc, offs) // trains {0,1,2,3}; CovP == AccP

	// Idle bus: coverage-biased pattern selected.
	d.SetBandwidthHeadroom(1)
	if got := trainRegion(d, 2*RegionLines, pc, offs); len(got) == 0 {
		t.Fatal("no prediction with idle bus")
	}
	if d.CovPSelected != 2 || d.AccPSelected != 0 {
		t.Fatalf("cov/acc selections = %d/%d, want 2/0", d.CovPSelected, d.AccPSelected)
	}

	// Saturated bus: the accuracy-biased pattern must take over. The
	// CovPromote override stays off because CovP's measured accuracy on
	// this perfectly regular stream is high, so pin it out of reach.
	d.cfg.CovPromote = 2
	d.SetBandwidthHeadroom(0)
	if got := trainRegion(d, 3*RegionLines, pc, offs); len(got) == 0 {
		t.Fatal("no prediction under pressure")
	}
	if d.AccPSelected != 1 {
		t.Fatalf("AccPSelected = %d, want 1", d.AccPSelected)
	}
}

func TestDSPatchCovPromoteOverridesPressure(t *testing.T) {
	d := NewDSPatch(DSPatchConfig{Pages: 1, SPTEntries: 16})
	pc := uint64(0x400)
	offs := []uint64{0, 1, 2, 3}
	// Two predicted regions whose footprints match exactly drive the
	// CovP meter to 1.0 (the trigger bit always hits).
	for r := uint64(0); r < 4; r++ {
		trainRegion(d, r*RegionLines, pc, offs)
	}
	if acc := d.CovAccuracy(); acc < 0.99 {
		t.Fatalf("CovAccuracy = %v, want ~1 on a regular stream", acc)
	}
	d.SetBandwidthHeadroom(0) // pressure — but CovP has earned trust
	trainRegion(d, 10*RegionLines, pc, offs)
	if d.AccPSelected != 0 {
		t.Fatalf("accurate CovP should be kept under pressure; AccPSelected=%d", d.AccPSelected)
	}
}

func TestDSPatchAccPReseedsAfterDecay(t *testing.T) {
	d := NewDSPatch(DSPatchConfig{Pages: 1, SPTEntries: 16, MinAccBits: 2})
	pc := uint64(0x400)
	// Disjoint footprints AND to just the trigger bit, under MinAccBits.
	trainRegion(d, 0, pc, []uint64{0, 1, 2})
	trainRegion(d, 1*RegionLines, pc, []uint64{0, 8, 9})
	trainRegion(d, 2*RegionLines, pc, []uint64{0}) // evicts + trains region 1
	e := &d.spt[d.signature(pc, 0)&d.sptMask]
	if e.accP != 1|1<<8|1<<9 {
		t.Fatalf("accP = %b, want reseed from latest footprint", e.accP)
	}
	if e.covP != 1|1<<1|1<<2|1<<8|1<<9 {
		t.Fatalf("covP = %b, want OR of both footprints", e.covP)
	}
}

func TestDSPatchBudgetAndZeroAddress(t *testing.T) {
	d := NewDSPatch(DSPatchConfig{Pages: 1, SPTEntries: 16})
	// Zero line address trains and triggers without underflow.
	trainRegion(d, 0, 0, []uint64{0, 1, 2, 3, 4, 5})
	got := d.Observe(dsEv(1*RegionLines, 0), 2)
	if len(got) != 2 {
		t.Fatalf("budget 2 should cap emission: %v", got)
	}
	// Budget 0 emits nothing but still records the trigger for training.
	d2 := NewDSPatch(DSPatchConfig{Pages: 1, SPTEntries: 16})
	trainRegion(d2, 0, 0, []uint64{0, 1, 2, 3})
	if got := d2.Observe(dsEv(1*RegionLines, 0), 0); got != nil {
		t.Fatalf("budget 0 must emit nothing: %v", got)
	}
	if d2.Issued != 0 || d2.CovPSelected != 0 {
		t.Fatal("budget-0 trigger must not count as a selection")
	}
}

func TestDSPatchPredictionsStayInRegion(t *testing.T) {
	d := NewDSPatch(DSPatchConfig{Pages: 2, SPTEntries: 16})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		line := r.Uint64() % (512 * RegionLines)
		pc := uint64(r.Intn(8)) * 4
		for _, a := range d.Observe(dsEv(line, pc), 8) {
			if a/RegionLines != line/RegionLines {
				t.Fatalf("prefetch %d escaped trigger region of line %d", a, line)
			}
			if a == line {
				t.Fatalf("prefetched the trigger line %d", line)
			}
		}
	}
}

// FuzzDSPatchPatterns drives random access streams through the region
// table and checks the structural invariants: every emitted address
// stays inside the trigger's region and is never the trigger line,
// emission respects the budget, and the page buffer's region index
// round-trips (every map entry points at a valid entry for that region,
// every valid entry is indexed).
func FuzzDSPatchPatterns(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 64, 65, 66, 2, 3}, uint8(4))
	f.Add([]byte{255, 0, 255, 0, 128, 7}, uint8(0))
	f.Add([]byte{10, 10, 10}, uint8(255))
	f.Fuzz(func(t *testing.T, stream []byte, budget8 uint8) {
		d := NewDSPatch(DSPatchConfig{Pages: 4, SPTEntries: 16})
		budget := int(budget8 % 16)
		var line uint64
		for i, b := range stream {
			// Mix of local strides and region jumps from the raw bytes.
			if b&1 == 0 {
				line += uint64(b >> 1)
			} else {
				line = uint64(b) * 37 * RegionLines / 5
			}
			pc := uint64(b&0x0f) << 2
			out := d.Observe(dsEv(line, pc), budget)
			if len(out) > budget {
				t.Fatalf("step %d: emitted %d > budget %d", i, len(out), budget)
			}
			seen := map[uint64]bool{}
			for _, a := range out {
				if a/RegionLines != line/RegionLines {
					t.Fatalf("step %d: address %d outside region of %d", i, a, line)
				}
				if a == line {
					t.Fatalf("step %d: emitted the trigger line", i)
				}
				if seen[a] {
					t.Fatalf("step %d: duplicate address %d", i, a)
				}
				seen[a] = true
			}
			// Region-table round-trip.
			for region, idx := range d.pageIdx {
				if idx < 0 || idx >= len(d.pages) || !d.pages[idx].valid || d.pages[idx].region != region {
					t.Fatalf("step %d: pageIdx[%d]=%d inconsistent", i, region, idx)
				}
			}
			valid := 0
			for j := range d.pages {
				if d.pages[j].valid {
					valid++
					if got, ok := d.pageIdx[d.pages[j].region]; !ok || got != j {
						t.Fatalf("step %d: valid page %d not indexed", i, j)
					}
				}
			}
			if valid != len(d.pageIdx) {
				t.Fatalf("step %d: %d valid pages vs %d index entries", i, valid, len(d.pageIdx))
			}
		}
	})
}

func BenchmarkDSPatch(b *testing.B) {
	d := NewDSPatch(DSPatchConfig{})
	r := rand.New(rand.NewSource(1))
	lines := make([]uint64, 4096)
	pcs := make([]uint64, 4096)
	for i := range lines {
		base := uint64(r.Intn(64)) * RegionLines
		lines[i] = base + uint64(r.Intn(8))*3%RegionLines
		pcs[i] = uint64(r.Intn(16)) * 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(dsEv(lines[i%len(lines)], pcs[i%len(pcs)]), 8)
	}
}
