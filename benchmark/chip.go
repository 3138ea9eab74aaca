package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"trident/internal/core"
)

// chipReading is one read of a graph's modelled-chip ledger: simulated
// time and energy, never host time.
type chipReading struct {
	ns    float64
	nj    float64
	catNJ map[core.EnergyCategory]float64
}

// readChip reads g's merged ledger. The total is summed over categories in
// sorted order so that it is bit-identical from run to run.
func readChip(g *core.Graph) chipReading {
	led := g.Ledger()
	r := chipReading{ns: led.Elapsed().Nanoseconds(), catNJ: make(map[core.EnergyCategory]float64)}
	cats := make([]string, 0)
	for cat, e := range led.Breakdown() {
		r.catNJ[cat] = e.Joules() * 1e9
		cats = append(cats, string(cat))
	}
	sort.Strings(cats)
	for _, c := range cats {
		r.nj += r.catNJ[core.EnergyCategory(c)]
	}
	return r
}

// chipCost is a modelled-chip cost per sample.
type chipCost struct {
	nsPerSample float64
	njPerSample float64
	catNJ       map[core.EnergyCategory]float64
}

// costBetween is the per-sample chip cost of the work done between two
// readings of the same graph.
func costBetween(before, after chipReading, samples int) chipCost {
	n := float64(samples)
	c := chipCost{
		nsPerSample: (after.ns - before.ns) / n,
		njPerSample: (after.nj - before.nj) / n,
		catNJ:       make(map[core.EnergyCategory]float64),
	}
	for cat, v := range after.catNJ {
		c.catNJ[cat] = (v - before.catNJ[cat]) / n
	}
	return c
}

// mix blends per-sample costs by traffic weight.
func mix(costs []chipCost, weights []float64) chipCost {
	out := chipCost{catNJ: make(map[core.EnergyCategory]float64)}
	for i, c := range costs {
		out.nsPerSample += weights[i] * c.nsPerSample
		out.njPerSample += weights[i] * c.njPerSample
		for cat, v := range c.catNJ {
			out.catNJ[cat] += weights[i] * v
		}
	}
	return out
}

// putChip adds the chip metrics: the end-to-end pair and the per-layer
// energy breakdown.
func putChip(r *report, c chipCost) {
	r.e2e.put("sim_ns_per_sample", c.nsPerSample)
	r.e2e.put("sim_energy_nj_per_sample", c.njPerSample)
	r.layer.put("chip.gst_tuning_nj_per_sample", c.catNJ[core.CatGSTTuning])
	r.layer.put("chip.gst_read_nj_per_sample", c.catNJ[core.CatGSTRead])
	r.layer.put("chip.bpd_tia_nj_per_sample", c.catNJ[core.CatBPDTIA])
	r.layer.put("chip.eo_laser_nj_per_sample", c.catNJ[core.CatEOLaser])
}

// bankCounters sums the compiled-bank counters over every PE of g.
// DirtyRowCount is not safe against a concurrent mutation, so callers read
// it only while nothing else drives g.
func bankCounters(g *core.Graph) (rowsCompiled uint64, dirtyRows int) {
	g.ForEachPE(func(_, _, _ int, pe *core.PE) {
		rowsCompiled += pe.Bank().RowsCompiled()
		dirtyRows += pe.Bank().DirtyRowCount()
	})
	return rowsCompiled, dirtyRows
}

// rowsCompiled sums only the atomic compile counter, which is safe to read
// while g serves.
func rowsCompiled(g *core.Graph) uint64 {
	var n uint64
	g.ForEachPE(func(_, _, _ int, pe *core.PE) { n += pe.Bank().RowsCompiled() })
	return n
}

// allocsPerCall measures heap allocations and bytes per call of fn over
// calls quiet calls, from runtime.MemStats deltas. It must run while no
// other goroutine allocates.
func allocsPerCall(calls int, fn func() error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// maxRSSMB returns the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's view of memory obtained from the OS.
func maxRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
