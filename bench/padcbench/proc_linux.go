package main

import (
	"os"
	"syscall"
)

// childAttr kills a child if the benchmark dies first, so no simulation
// outlives the run that started it.
func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

// maxRSS returns an exited child's peak resident set in KiB.
func maxRSS(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}
