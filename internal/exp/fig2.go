package exp

import (
	"padc/internal/dram"
	"padc/internal/memctrl"
)

// fig2Run drives the DRAM controller directly through the paper's Figure 2
// scenario: one bank with row A open and three buffered requests —
// prefetch X (row A), demand Y (row B), prefetch Z (row A). It returns the
// completion cycle of each request under the given policy.
//
// With the paper's conceptual latencies (row-hit 100, row-conflict 300;
// our timing constants scale those), demand-first services Y, X, Z turning
// X into a conflict, while demand-prefetch-equal services X, Z, Y keeping
// both prefetches row-hits — the 725- versus 575-cycle contrast of
// Figure 2(b).
func fig2Run(pol memctrl.Policy) (x, y, z uint64) {
	cfg := dram.DefaultConfig()
	cfg.Banks = 1
	ch := dram.NewChannel(cfg)
	const rowA, rowB = 10, 20
	ch.Banks[0].OpenRow = rowA

	ctrl := memctrl.NewStack(pol.Stack(), ch, 16, nil)
	mk := func(line uint64, prefetch bool, row uint64) *memctrl.Request {
		return &memctrl.Request{
			Line:     line,
			Addr:     dram.Address{Bank: 0, Row: row},
			Prefetch: prefetch,
			WasPref:  prefetch,
		}
	}
	reqX := mk(1, true, rowA)
	reqY := mk(2, false, rowB)
	reqZ := mk(3, true, rowA)
	ctrl.Enqueue(reqX)
	ctrl.Enqueue(reqY)
	ctrl.Enqueue(reqZ)

	for now := uint64(1); now < 100_000; now++ {
		done := ctrl.Tick(now, 1)
		for _, r := range done {
			switch r {
			case reqX:
				x = r.FinishAt
			case reqY:
				y = r.FinishAt
			case reqZ:
				z = r.FinishAt
			}
		}
		if x != 0 && y != 0 && z != 0 {
			break
		}
	}
	return x, y, z
}
