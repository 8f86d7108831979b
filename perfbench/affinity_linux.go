package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// confineThreads moves every thread of the process onto cpus and returns
// a function that widens them all to widen again. Threads the runtime
// starts later inherit the mask of the thread that starts them.
func confineThreads(cpus, widen []int) (restore func()) {
	apply := func(list []int) {
		var s cpuSet
		for _, c := range list {
			s.set(c)
		}
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				// A thread that exited meanwhile refuses; that is fine.
				_ = setAffinity(tid, &s)
			}
		}
	}
	apply(cpus)
	return func() { apply(widen) }
}

// pinThread locks the calling goroutine to its OS thread and that thread
// to one CPU, the way a poll-mode core is given a CPU of its own. The
// goroutine must end still locked: the runtime then ends the thread with
// it instead of handing a pinned thread to other goroutines, and it
// starts new threads from an unpinned one.
func pinThread(cpu int) {
	runtime.LockOSThread()
	var s cpuSet
	s.set(cpu)
	// A refused mask leaves the thread unpinned, which costs steadiness,
	// not correctness.
	_ = setAffinity(0, &s)
}
