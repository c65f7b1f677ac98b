package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used so far, user plus system,
// over all its threads. On a virtual machine whose kernel accounts stolen
// time (time the hypervisor ran other guests on this one's CPUs), that
// time is not in it, which is why the end-to-end work figures are taken
// in CPU time rather than wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
