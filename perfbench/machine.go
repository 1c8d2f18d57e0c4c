package main

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on is a small virtual machine that shares its
// hardware with other machines, which slows it in two ways; endToEnd takes
// both out of the host-time metrics, and the raw figures are printed beside
// them. Neither correction runs any of the repository's code, so a change
// to the simulator moves the reported seconds by the same share as the raw
// ones.
//
// Stolen time: the hypervisor runs the other machines on the CPUs for a
// varying share of the time, at times a quarter of it or more. The kernel
// counts steal per machine in /proc/stat and leaves it out of busy time and
// of CPU time. Taking steal to hit every CPU that wants to run alike, a
// timed section would have taken its wall time times the unstolen share of
// the machine's busy-or-stolen CPU time over the section.
//
// Memory speed: loads and stores slow down over seconds to minutes with what
// the other machines do — a simulation iteration that takes 4.2 s in a quiet
// spell takes 5.4 s a few minutes later with almost nothing stolen — while
// arithmetic does not. So each iteration times a fixed memory probe, random
// read-modify-writes over an 8 MiB buffer of its own, in CPU time (which
// excludes steal), when its timed section starts, between calls into the
// library at least phaseMinS apart, and when it ends. The calls between
// probes evict the buffer from the per-core caches, so a probe times
// refilling it from the shared cache and memory, as the simulation must
// refill its own data. The probe does nothing else, while the simulation
// also computes, so a slowdown k of the probe slows the simulation by about
// k to the power memShare, the share of its time that waits on memory; an
// iteration's host seconds are scaled by (refProbeS / its median probe) to
// that power.

const (
	// probeWords is the probe buffer's size in 8-byte words: 8 MiB, four
	// times the processor's per-core L2 cache.
	probeWords = 1 << 20
	// probeSteps is the number of read-modify-writes one probe makes.
	probeSteps = 2 << 20
	// refProbeS is about what one probe takes on a 2-vCPU Intel Xeon
	// (CPUID model 207, 2 MiB L2 per core) virtual machine at its median
	// memory speed.
	refProbeS = 0.015
	// memShare is the share of the simulation's time that follows the
	// probe, fitted on that machine: over 30 runs of the three workloads
	// in spells of differing memory contention, it left the least spread
	// between runs of the same code (0.5 to 0.7 for fig6-websearch, 0.7 to
	// 1 for resilience and scale512).
	memShare = 0.7
	// phaseMinS is the shortest timed phase the probe closes: a probe costs
	// about 15 ms, so short set-up calls are grouped with what follows.
	phaseMinS = 0.1
)

// prober times the memory probe. Its buffer is mapped outside the Go heap,
// so it does not change the garbage collector's pacing of the simulation;
// its pages do count in the process's resident memory, and bytes says how
// many.
type prober struct {
	buf  []uint64
	mem  []byte
	seed uint64
}

// newProber maps and touches the probe buffer and runs one untimed probe,
// so that later probes find it resident.
func newProber() (*prober, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeWords)
	p := &prober{mem: mem, buf: words, seed: 1}
	for i := range p.buf {
		p.buf[i] = uint64(i)
	}
	if p.probe() <= 0 {
		p.close()
		return nil, errors.New("the thread CPU clock does not advance")
	}
	return p, nil
}

// bytes is the probe buffer's resident size.
func (p *prober) bytes() int { return len(p.mem) }

func (p *prober) close() { syscall.Munmap(p.mem) }

// probe makes probeSteps random read-modify-writes over the buffer and
// returns the CPU seconds they took.
func (p *prober) probe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := p.buf
	x := p.seed
	t0 := threadCPUSeconds()
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 33) & (probeWords - 1)
		buf[j] += x
	}
	d := threadCPUSeconds() - t0
	p.seed = x
	return d
}

// threadCPUSeconds is the calling thread's CPU time, read from the
// scheduler's exact per-thread clock (getrusage would round to ticks).
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// cpuTimes is the machine's CPU time, summed over CPUs, as /proc/stat
// counts it.
type cpuTimes struct {
	busy, stolen float64 // seconds
	ok           bool    // false where /proc/stat could not be read
}

// readCPUTimes reads the aggregate "cpu" line of /proc/stat: busy is user,
// nice, system, irq and softirq time (guest time is part of user), stolen
// is steal time.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var ticks [9]float64
	for i := 1; i < 9; i++ {
		if ticks[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return cpuTimes{}
		}
	}
	const userHz = 100 // the unit of /proc/stat on Linux
	busy := ticks[1] + ticks[2] + ticks[3] + ticks[6] + ticks[7]
	return cpuTimes{busy: busy / userHz, stolen: ticks[8] / userHz, ok: true}
}

// stealFrac is the share of busy-or-stolen CPU time stolen since t0, or 0
// when either reading failed or nothing ran.
func (t cpuTimes) stealFrac(t0 cpuTimes) float64 {
	busy, stolen := t.busy-t0.busy, t.stolen-t0.stolen
	if !t.ok || !t0.ok || busy+stolen <= 0 || stolen < 0 {
		return 0
	}
	return stolen / (busy + stolen)
}
