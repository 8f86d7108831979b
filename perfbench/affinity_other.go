//go:build !linux

package main

import "runtime"

// allowedCPUs is unknown off Linux; the wire workload then runs unpinned.
func allowedCPUs() []int { return nil }

func confineThreads(cpus, widen []int) (restore func()) { return func() {} }

// pinThread only locks the goroutine to its thread off Linux.
func pinThread(int) { runtime.LockOSThread() }
