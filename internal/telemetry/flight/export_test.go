package flight

// Retained returns (retained, completed, evicted) epoch counts — the
// bounds contract: retained never exceeds MaxEpochs.
func (r *Recorder) Retained() (retained, completed, evicted int) {
	if r == nil {
		return 0, 0, 0
	}
	return r.count, r.done, r.drop
}
