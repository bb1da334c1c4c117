package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on shares physical cores with other
// machines: the same CPU-bound loop runs up to ~1.6x slower for minutes at a
// time. Untraced runs therefore time a fixed calibration kernel, on every
// core, before and after each phase, and scale their times and rates to the
// speed the kernel has at calibRefSeconds. The kernel shares no code with
// the program under test, so a change to the program moves the scaled
// figures exactly as it moves the raw ones; only the host's drift is taken
// out. The raw figures and the factor are printed in the run's notes.

// calibRefSeconds is the kernel's duration on the reference host: the
// median over many samples on the two-core machine the benchmark was
// written on. Any fixed value works; it sets the scale of the figures.
const calibRefSeconds = 0.0027

// calibBuf and calibTable are the kernel's read-only working set: a buffer
// to hash and a table probed along the way, like the detectors' lookups.
var (
	calibBuf = func() []byte {
		b := make([]byte, 32<<10)
		x := uint64(88172645463325252)
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
		return b
	}()
	calibTable = func() map[uint32]uint32 {
		m := make(map[uint32]uint32, 4096)
		for i := uint32(0); i < 4096; i++ {
			m[i] = i * 2654435761
		}
		return m
	}()
	calibSink atomic.Uint64
)

// calibKernel is a fixed amount of hashing and table probing.
func calibKernel() {
	h := uint64(14695981039346656037)
	for r := 0; r < 32; r++ {
		for i, b := range calibBuf {
			h ^= uint64(b)
			h *= 1099511628211
			if i&31 == 0 {
				h += uint64(calibTable[uint32(h)&4095])
			}
		}
	}
	calibSink.Add(h)
}

// hostClock collects kernel timings over a run.
type hostClock struct {
	seconds []float64
}

// sample times the kernel on every core at once and records the median
// duration. Call it only while GOMAXPROCS is nproc.
func (c *hostClock) sample() {
	n := runtime.NumCPU()
	durs := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			calibKernel()
			durs[g] = time.Since(start).Seconds()
		}(g)
	}
	wg.Wait()
	c.seconds = append(c.seconds, median(durs))
}

// slowdown is how much slower the host ran the kernel during the run than
// the reference: divide times and multiply rates by it.
func (c *hostClock) slowdown() float64 { return median(c.seconds) / calibRefSeconds }
