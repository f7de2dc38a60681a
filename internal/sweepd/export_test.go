package sweepd

import "context"

// Wait blocks until the run loop exits (terminal state reached or the
// service shut down) or ctx is cancelled.
func (c *Campaign) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready reports whether SetReady has been called.
func (g *Gate) Ready() bool { return g.h.Load() != nil }
