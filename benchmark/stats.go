package main

import (
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of the samples by the
// nearest-rank rule on the sorted values; 0 for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(p*float64(len(s)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max−min)/median, the repetition-to-repetition spread the
// driver prints beside every metric.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return (hi - lo) / m
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSKB is this process's peak resident set in KiB: ru_maxrss, the
// figure /proc/self/status shows as VmHWM. It is the default for
// workloads that run inside the driver's process.
func (*layerCounters) peakRSSKB() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Maxrss, nil
}
