package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a table of the metrics to standard error and the result
// object to standard output.
func report(name string, ops []op, ms []metric, failed int) error {
	res := result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(os.Stderr, "perfbench %s: %d operations, %d failed\n", name, len(ops), failed)
	for _, m := range ms {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Println(string(data))
	return nil
}

// median returns the median of xs (the mean of the middle pair for an even
// count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// heapInUse is the live Go heap in bytes (call after runtime.GC).
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMiB is this process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// stolen is the time the host has stolen from this virtual machine, per
// CPU: the mean over CPUs of /proc/stat's steal column (the time a vCPU was
// runnable but not running), in USER_HZ ticks of 10 ms. Zero on bare metal.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks, cpus int64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		n, _ := strconv.ParseInt(f[8], 10, 64)
		ticks += n
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(cpus)
}
