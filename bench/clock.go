package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Every end-to-end timing is taken on a reference clock rather than the wall
// clock. On a shared host the speed of the machine drifts with the load of
// its other tenants: on the 2-core VM this benchmark was built on, a fixed
// loop's CPU time moved between about 60 and 150 µs within minutes, with no
// CPU steal reported, and 30 s windows of sampling throughput spread by 32%
// IQR. A probe thread in the harness therefore runs a fixed floating-point
// loop every probeEvery and records the CPU time it took (thread CPU time, so
// waiting for a core does not count). Within each clockBucket of wall time
// the reference clock runs at refProbeCPU over the bucket's median probe
// time: at 1 when the machine runs at reference speed, slower when the host
// slows it down. An interval's reference time is the time it would have
// taken at reference speed. On the same windows, reference throughput spread
// by 6–7% IQR.
const (
	probeEvery  = 10 * time.Millisecond
	clockBucket = 250 * time.Millisecond
	// refProbeCPU is probeWork's CPU time at reference speed: its time on
	// the VM above while no other tenant slowed it.
	refProbeCPU = 60 * time.Microsecond
)

// probeSink keeps the compiler from discarding probeWork.
var probeSink float64

// probeWork is the probe's fixed load: a 24×24 matrix product repeated six
// times, about 83k multiply-adds on data that stays in the L1 cache. It is
// the harness's own code, so no change to the program can speed it up.
func probeWork() {
	const m = 24
	var a, b, c [m * m]float64
	for i := range a {
		a[i] = float64(i%7) * 0.01
		b[i] = float64(i%5) * 0.02
	}
	for r := 0; r < 6; r++ {
		for i := 0; i < m; i++ {
			for k := 0; k < m; k++ {
				x := a[i*m+k]
				for j := 0; j < m; j++ {
					c[i*m+j] += x * b[k*m+j]
				}
			}
		}
	}
	probeSink += c[m+1]
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeSample is one run of probeWork: when it ended, since the probe
// started, and the CPU time it took.
type probeSample struct {
	at, cpu time.Duration
}

// speedProbe runs probeWork every probeEvery on a thread of its own until
// stopped.
type speedProbe struct {
	start   time.Time
	quit    chan struct{}
	once    sync.Once
	done    chan struct{}
	samples []probeSample // owned by the probe goroutine until done is closed
}

func startProbe() *speedProbe {
	p := &speedProbe{start: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			probeWork()
			p.samples = append(p.samples, probeSample{at: time.Since(p.start), cpu: threadCPU() - c0})
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the probe, waits for its goroutine, and returns the reference
// clock over the time it ran. Calling it again returns the same clock.
func (p *speedProbe) stop() *refClock {
	p.once.Do(func() { close(p.quit) })
	<-p.done
	return newRefClock(p.start, p.samples)
}

// refClock maps wall-clock instants to reference seconds since start.
type refClock struct {
	start time.Time
	speed []float64 // reference seconds per wall second, by bucket
	cum   []float64 // reference seconds at the start of each bucket
}

func newRefClock(start time.Time, samples []probeSample) *refClock {
	c := &refClock{start: start}
	if len(samples) == 0 {
		c.speed, c.cum = []float64{1}, []float64{0}
		return c
	}
	buckets := make([][]float64, int(samples[len(samples)-1].at/clockBucket)+1)
	all := make([]float64, len(samples))
	for i, s := range samples {
		b := int(s.at / clockBucket)
		buckets[b] = append(buckets[b], float64(s.cpu))
		all[i] = float64(s.cpu)
	}
	overall := float64(refProbeCPU) / median(all)
	var sum float64
	for _, xs := range buckets {
		v := overall
		if len(xs) > 0 {
			v = float64(refProbeCPU) / median(xs)
		}
		c.speed = append(c.speed, v)
		c.cum = append(c.cum, sum)
		sum += v * clockBucket.Seconds()
	}
	return c
}

// at returns the reference seconds from the clock's start to t. Outside the
// probe's span the nearest bucket's speed applies.
func (c *refClock) at(t time.Time) float64 {
	x := t.Sub(c.start).Seconds() / clockBucket.Seconds()
	b := min(max(int(math.Floor(x)), 0), len(c.speed)-1)
	return c.cum[b] + (x-float64(b))*clockBucket.Seconds()*c.speed[b]
}

// dur is the reference time between two instants.
func (c *refClock) dur(t0, t1 time.Time) time.Duration {
	return time.Duration((c.at(t1) - c.at(t0)) * float64(time.Second))
}

// slowdown is the median of wall time over reference time across the
// buckets from t0 to t1: 1 at reference speed, 2 when the machine ran at
// half of it.
func (c *refClock) slowdown(t0, t1 time.Time) float64 {
	b0 := int(t0.Sub(c.start) / clockBucket)
	b1 := int(t1.Sub(c.start) / clockBucket)
	var xs []float64
	for b := max(b0, 0); b <= min(b1, len(c.speed)-1); b++ {
		xs = append(xs, 1/c.speed[b])
	}
	return median(xs)
}
