//go:build !linux

package main

import (
	"os"
	"syscall"
)

func childAttr() *syscall.SysProcAttr { return nil }

// maxRSS is unavailable off Linux; peak_rss_mb then reads 0.
func maxRSS(*os.ProcessState) int64 { return 0 }
