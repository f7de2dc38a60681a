package memctrl

import (
	"testing"

	"padc/internal/dram"
)

// TestRecycledRequestIsZeroed stamps every field of a request, the
// controller-private FCFS sequence included, and requires the request the
// free list hands out next to be that same object, fully zeroed: no stale
// seq, promotion, issue or row-state value may leak into its next life.
func TestRecycledRequestIsZeroed(t *testing.T) {
	c := New(APS, oneBank(), 4, fixedState{critical: map[int]bool{}})
	c.Enqueue(req(0, 1, 5, false)) // takes seq 0, so r's seq is nonzero
	r := c.NewRequest()
	*r = Request{
		Core: 2, Line: 9, Addr: dram.Address{Channel: 1, Row: 7, Col: 3},
		Prefetch: true, WasPref: true, Runahead: true, Arrival: 4,
	}
	c.Enqueue(r)
	if c.MatchPrefetch(2, 9, 6) != r {
		t.Fatal("setup: prefetch was not promoted")
	}
	if got := drain(c, 2); len(got) != 2 {
		t.Fatalf("setup: %d of 2 requests completed", len(got))
	}
	r.MemSide = true
	if r.seq == 0 || r.PromotedAt == 0 || !r.Inflight || r.FinishAt == 0 || r.ServiceAt == 0 {
		t.Fatalf("setup: request not fully stamped: %+v", *r)
	}

	c.Recycle(r)
	got := c.NewRequest()
	if got != r {
		t.Fatal("NewRequest did not reuse the recycled request")
	}
	if *got != (Request{}) {
		t.Fatalf("recycled request kept state: %+v", *got)
	}
}

// TestRejectedAndDroppedRequestsRecycle follows the two ways a request
// leaves the controller without being serviced — rejected by a full
// buffer, dropped by the APD scan — back onto the free list.
func TestRejectedAndDroppedRequestsRecycle(t *testing.T) {
	st := fixedState{critical: map[int]bool{}}

	c := New(APS, oneBank(), 1, st)
	c.Enqueue(req(0, 1, 5, false))
	x := c.NewRequest()
	*x = *req(0, 2, 5, false)
	if c.Enqueue(x) {
		t.Fatal("setup: enqueue into a full buffer succeeded")
	}
	c.Recycle(x)
	if c.NewRequest() != x {
		t.Fatal("rejected request did not return to the free list")
	}

	c = New(APS, oneBank(), 4, st)
	p := c.NewRequest()
	*p = *req(0, 3, 5, true)
	c.Enqueue(p)
	dropped := c.DropExpired(1_000, func(*Request) uint64 { return 10 })
	if len(dropped) != 1 || dropped[0] != p {
		t.Fatalf("setup: dropped %v, want the lone prefetch", dropped)
	}
	for _, r := range dropped {
		c.Recycle(r)
	}
	if c.NewRequest() != p {
		t.Fatal("dropped request did not return to the free list")
	}
}

// TestFreeListBoundedByCapacity recycles more requests than the buffer
// can hold: the surplus is left to the garbage collector.
func TestFreeListBoundedByCapacity(t *testing.T) {
	c := New(DemandFirst, oneBank(), 3, nil)
	for i := 0; i < 10; i++ {
		c.Recycle(&Request{Line: uint64(i)})
		if len(c.free) > 3 {
			t.Fatalf("free list holds %d requests, capacity 3", len(c.free))
		}
	}
	if len(c.free) != 3 {
		t.Fatalf("free list holds %d requests, want 3", len(c.free))
	}
}
