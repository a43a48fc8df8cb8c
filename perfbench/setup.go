package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// moduleProbeRuns is how many fresh processes time the cold module builds.
const moduleProbeRuns = 9

// guestsOf lists the distinct guests of a workload's programs.
func guestsOf(progs []*program) []string {
	var gs []string
	for _, p := range progs {
		if !slices.Contains(gs, p.guest) {
			gs = append(gs, p.guest)
		}
	}
	return gs
}

// moduleProbe builds the modules of a workload's guests in this (fresh)
// process and prints the wall time in seconds.
func moduleProbe(name string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	progs, err := w.programs(1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, g := range guestsOf(progs) {
		if _, err := buildModule(g); err != nil {
			return err
		}
	}
	fmt.Println(time.Since(t0).Seconds())
	return nil
}

// moduleProbes times the cold (first-in-process) module builds of the
// workload's guests in moduleProbeRuns fresh processes, one at a time, and
// returns the median: a module build is cached per process, so a cold
// build can be repeated only in a new one.
func moduleProbes(name string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < moduleProbeRuns; i++ {
		out, err := exec.Command(self, "--module-probe", "--workload", name).Output()
		if err != nil {
			return 0, fmt.Errorf("module probe: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("module probe: %w", err)
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}
