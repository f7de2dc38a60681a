package memctrl

import (
	"math/rand"
	"testing"

	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/telemetry/probe"
)

// bankTally sums the bank transitions a controller publishes.
type bankTally struct{ issues, refreshes, opens, closes uint64 }

func (b *bankTally) Observe(ev probe.Event) {
	switch ev.Kind {
	case probe.Issue:
		b.issues++
		b.opens += uint64(ev.Opens)
		b.closes += uint64(ev.Closes)
	case probe.Refresh:
		b.refreshes++
		b.closes += uint64(ev.Closes)
	}
}

// TestProbeTransitionsMatchChannel checks the open and close counts the
// controller publishes against the DRAM channel's own activation and
// precharge counters, under every page policy and both refresh modes:
// the controller reads them off the bank it just issued to or refreshed,
// including the closing policies' precharges after an access and a
// refresh's precharge of an open row.
func TestProbeTransitionsMatchChannel(t *testing.T) {
	for _, page := range []dram.PagePolicy{dram.OpenPage, dram.ClosedPage, dram.AdaptivePage} {
		for _, mode := range []refresh.Mode{refresh.PerBank, refresh.AllBank} {
			cfg := dram.DefaultConfig()
			cfg.Banks, cfg.Page = 4, page
			ch := dram.NewChannel(cfg)
			c := NewStack(DemandPrefEqual.Stack(), ch, 32, nil)
			c.AttachRefresh(refresh.NewEngine(testRefreshCfg(mode), cfg.Banks))
			var tally bankTally
			c.AttachProbe(probe.New(&tally), 0)
			rng := rand.New(rand.NewSource(1))
			for now := uint64(0); now < 20_000; now += 4 {
				if rng.Intn(3) == 0 {
					addr := dram.Address{Bank: rng.Intn(cfg.Banks), Row: uint64(rng.Intn(3))}
					c.Enqueue(&Request{Line: now, Addr: addr, Arrival: now})
				}
				c.Tick(now, 1)
			}
			if tally.issues == 0 || tally.refreshes == 0 {
				t.Fatalf("%v/%v: %d issues and %d refreshes published", page, mode, tally.issues, tally.refreshes)
			}
			if tally.opens != ch.Activations || tally.closes != ch.Precharges {
				t.Errorf("%v/%v: published %d opens and %d closes, the channel counted %d activations and %d precharges",
					page, mode, tally.opens, tally.closes, ch.Activations, ch.Precharges)
			}
		}
	}
}
