package sim

// SleepStats reports the core ticks the run executed and the core cycles
// that slept instead, both summed over the cores. Each core either ticks
// or sleeps through every cycle, so per core the two sum to
// Results.Cycles; under KernelStepped no core sleeps.
func (s *System) SleepStats() (ticks, slept uint64) {
	for _, cs := range s.cores {
		ticks += cs.ticks
		slept += cs.slept
	}
	return ticks, slept
}

// String names the kernel in test logs and benchmark names.
func (k Kernel) String() string {
	return [...]string{KernelEvents: "events", KernelStepped: "stepped"}[k]
}
