package main

import (
	"syscall"
	"unsafe"
)

// pinThread restricts the calling OS thread to one CPU. Only that thread
// is pinned: the process's other threads, the program's worker pools
// among them, keep every CPU.
func pinThread(cpu int) error {
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64] |= 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}
