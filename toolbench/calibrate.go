package main

import "time"

// The host this benchmark was built on changes speed by up to 2× within
// a minute, and a fixed compile+run slowed down together with a fixed
// loop of plain Go code running next to it. Every timing is therefore
// scaled to a reference host speed: a fixed loop is timed just before
// and just after each timed task, and the task's durations are
// multiplied by calRef over the faster of the two loop times (see
// hostScale). The loop is the benchmark's own code, so a change to the
// compiler under test cannot move it.

// calRef is the reference speed: about the median, on a 2-vCPU KVM
// guest, of the faster of the two loops around a task.
const calRef = 1850 * time.Microsecond

var (
	calMap = make(map[int]int, 4096)
	calBuf = make([]int, 1<<16)
	calOut int
)

// calibrate times a fixed mix of map updates, scattered slice accesses
// and branches — the shape of compiler and interpreter work — and
// returns how long it took.
func calibrate() time.Duration {
	clear(calMap)
	clear(calBuf)
	start := time.Now()
	x := 88172645463325252
	for i := 0; i < 30000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & 4095
		calMap[k] += i
		j := (x >> 20) & (len(calBuf) - 1)
		calBuf[j] += calMap[k&1023]
		if calBuf[j]&1 == 0 {
			calOut++
		}
	}
	return time.Since(start)
}

// hostScale is the factor that scales a task's durations to the
// reference speed, given the loop times taken just before and just
// after it. The faster loop is used: a loop the scheduler interrupted
// reads slow, and a single interrupted loop would otherwise scale the
// whole task by as much as 4×.
func hostScale(before, after time.Duration) float64 {
	return float64(calRef) / float64(min(before, after))
}

// scaled applies a calibration factor to a duration.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}
