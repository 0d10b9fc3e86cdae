package main

import (
	"math"
	"sync"
	"time"
)

// The box-speed references.
//
// On this shared 2-core sandbox the whole box speeds up and slows down
// by ±25 % from one minute to the next, and the workloads follow it: ten
// identical 25 s runs of serve_volatile or sweep_offline spread 15–28 %
// (interquartile, as a share of the median), and no statistic taken
// inside a run helps, because the drift is slower than a run. The
// device-bound workloads drift less on a quiet box (3 %) and as much
// on a disturbed one (20 %): their time is timer sleeps, and how late a
// sleeping vCPU is woken is the host's doing. So every workload carries
// a control. Its timed phase alternates refSlice of workload with a
// burst of a frozen reference load — code in this file only, nothing
// of the repository's — that uses the resource the workload's time
// goes to, and each workload slice's times are scaled by how fast the
// reference ran right after it, relative to its nominal rate:
//
//   - cpuSpeed, for the CPU-bound workloads: an allocating dynamic
//     program on two goroutines, as many as the box has cores;
//   - timerSpeed, for the workloads that sleep on the modelled device:
//     a fixed sequence of sleeps from the device model's distribution.
//
// Measured over 8 minutes of drift, cut into 25 s runs, the raw means
// spread 14 % (sweep_offline), 8 % (serve_volatile) and 3 %
// (serve_durable); the corrected ones 2.4 %, 3.0 % and 0.7 %. A change
// to the repository cannot move a reference, so a corrected metric
// moves exactly when the code under test does.

const (
	refSlice = 100 * time.Millisecond
	// Nominal rates: what each reference reads on this class of box
	// when it is quiet. Only a scale — a run on a box at exactly this
	// speed reports its wall-clock numbers unchanged. cpuNominal is in
	// refDP calls per second; timerNominal is time asked for ÷ time
	// slept (a Go timer in a process with open sockets wakes at
	// millisecond granularity, so a 1 ms sleep takes about 1.6 ms).
	cpuNominal   = 50000
	timerNominal = 0.635
	refWorkers   = 2
	timerSleeps  = 32
)

var refSink float64

// refDP is the frozen reference kernel: a small dynamic program that
// allocates a row per step, like the work the CPU-bound workloads do.
func refDP() float64 {
	prev := make([]float64, 64)
	for step := 0; step < 36; step++ {
		cur := make([]float64, 64)
		for s := range cur {
			best := math.Inf(1)
			for b := 0; b < 6; b++ {
				if v := prev[s^(1<<b)] + float64((s>>b)&1) + 0.25; v < best {
					best = v
				}
			}
			cur[s] = best
		}
		prev = cur
	}
	return prev[0]
}

// cpuSpeed runs refDP on refWorkers goroutines for one slice and
// returns the rate as a share of cpuNominal.
func cpuSpeed() float64 {
	var wg sync.WaitGroup
	var calls [refWorkers]int
	var acc [refWorkers]float64
	start := time.Now()
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < refSlice {
				for k := 0; k < 50; k++ {
					acc[w] += refDP()
				}
				calls[w] += 50
			}
		}()
	}
	wg.Wait()
	total := 0
	for w := range calls {
		total += calls[w]
		refSink += acc[w]
	}
	return float64(total) / time.Since(start).Seconds() / cpuNominal
}

// timerSpeed sleeps a fixed sequence of timerSleeps durations, uniform
// in (0, 2 ms] like the device model's stalls, and returns time asked
// for ÷ time slept as a share of timerNominal.
func timerSpeed() float64 {
	state := uint64(1)
	var asked time.Duration
	start := time.Now()
	for i := 0; i < timerSleeps; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		d := 1 + time.Duration((state>>33)%uint64(2*time.Millisecond))
		asked += d
		time.Sleep(d)
	}
	return float64(asked) / float64(time.Since(start)) / timerNominal
}
