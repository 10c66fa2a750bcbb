package main

import "time"

// probeNominalMS is the probe's time on the host the benchmark was
// written on, a 2.1 GHz Xeon VM with 2 vCPUs: one reference second is a
// second of that host at the speed it ran the probe at.
const probeNominalMS = 6.0

// probeSink keeps the compiler from dropping the probe's loop.
var probeSink uint64

// probe times a fixed integer loop in CPU time and records it. The run
// probes before every timed step, so the median probe time tracks the
// host's speed over the run: a shared host's speed drifts by tens of
// percent over minutes, the program's and the probe's alike. The loop
// is the benchmark's own code, so no change to the program moves it.
func (r *run) probe() {
	start := cpuTime()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	probeSink += acc
	r.probes = append(r.probes, float64(cpuTime()-start)/float64(time.Millisecond))
}
