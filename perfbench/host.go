package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// A shared host's memory bandwidth moves: on the 2-vCPU VM this benchmark
// was measured on, a memory-streaming loop, like the hypervector
// arithmetic, ran up to twice as slow from one second to the next while an
// integer loop held its speed. So every run times a fixed
// memory-streaming loop before its set-up and after its measured phases,
// and flags the run when the two readings disagree.

const (
	// probeWords is the probe's buffer: 32 MiB of uint64, larger than any
	// cache the loop could stay in.
	probeWords = 4 << 20
	// probePasses is how many times one probe reading streams the buffer.
	probePasses = 4
	// probeReadings is how many readings one probe takes; it reports their
	// median. Memory bandwidth on a shared host moves from one second to
	// the next, so one probe spans about half a second.
	probeReadings = 21
	// probeDrift is the relative difference between the readings before
	// and after a run above which the run is flagged.
	probeDrift = 0.1
)

// probeSink keeps the probe's sum alive, so the compiler keeps the loop.
var probeSink uint64

// hostProbe times probePasses sequential reads of a 32 MiB buffer and
// returns the median of probeReadings such timings, in milliseconds.
func hostProbe() float64 {
	runtime.GC() // no collection of the run's garbage overlaps the readings
	buf := make([]uint64, probeWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	times := make([]float64, probeReadings)
	for k := range times {
		start := time.Now()
		var sum uint64
		for p := 0; p < probePasses; p++ {
			for _, v := range buf {
				sum += v
			}
		}
		times[k] = ms(time.Since(start))
		probeSink += sum
	}
	return median(times)
}

// setProbe reports the host probe of one run from its readings before and
// after, and flags a run whose readings differ by more than probeDrift.
func (r *report) setProbe(before, after float64) {
	drift := ratio(after-before, before)
	flag := ""
	if drift > probeDrift || drift < -probeDrift {
		flag = fmt.Sprintf("  HOST STATE CHANGED (more than %.0f%%): compare this run with care", 100*probeDrift)
	}
	r.printf("host probe before %.3f ms, after %.3f ms, drift %+.3f%s", before, after, drift, flag)
	r.set("host.probe_ms", median([]float64{before, after}))
}

// fsType names the type of the filesystem holding path, for provenance.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
