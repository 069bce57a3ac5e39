package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile is one nearest-rank percentile of a sample, with the sample
// count it was taken from and how many samples lie strictly beyond it.
type quantile struct {
	Value  float64
	N      int // samples
	Rank   int // 1-based rank of Value in the sorted sample
	Beyond int // samples ranked after Value
}

// nearestRank returns the p-quantile (0 < p ≤ 1) of xs by the
// nearest-rank method: the ⌈p·n⌉-th smallest sample. It does not modify
// xs. An empty sample yields the zero quantile.
func nearestRank(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return quantile{Value: sorted[rank-1], N: n, Rank: rank, Beyond: n - rank}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is the nearest-rank median of xs (the lower middle sample for
// an even count), so it is always a value that was measured.
func median(xs []float64) float64 { return nearestRank(xs, 0.5).Value }

// shardUtil is the share of the shards' capacity that legs kept busy:
// Σ leg wall time ÷ (shards × run wall time). It falls below 1 while a
// pass barrier waits on the slowest leg.
func shardUtil(legNs int64, shards int, wallNs int64) float64 {
	if shards <= 0 || wallNs <= 0 {
		return 0
	}
	return float64(legNs) / (float64(shards) * float64(wallNs))
}

// procStats is a snapshot of the Go runtime's cumulative counters.
type procStats struct {
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPUs     float64 `json:"gc_cpu_s"`
	CPUs       float64 `json:"cpu_s"`      // GOMAXPROCS × wall time
	IdleCPUs   float64 `json:"idle_cpu_s"` // the part of CPUs nothing ran on
}

var procSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readProcStats samples the runtime/metrics counters behind the
// process.* metrics.
func readProcStats() procStats {
	s := make([]metrics.Sample, len(procSamples))
	for i, name := range procSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ps procStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		ps.AllocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		ps.GCCPUs = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		ps.CPUs = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		ps.IdleCPUs = s[3].Value.Float64()
	}
	return ps
}

// sub returns the counter deltas from an earlier snapshot to p.
func (p procStats) sub(earlier procStats) procStats {
	return procStats{
		AllocBytes: p.AllocBytes - earlier.AllocBytes,
		GCCPUs:     p.GCCPUs - earlier.GCCPUs,
		CPUs:       p.CPUs - earlier.CPUs,
		IdleCPUs:   p.IdleCPUs - earlier.IdleCPUs,
	}
}

func (p procStats) add(q procStats) procStats {
	return procStats{
		AllocBytes: p.AllocBytes + q.AllocBytes,
		GCCPUs:     p.GCCPUs + q.GCCPUs,
		CPUs:       p.CPUs + q.CPUs,
		IdleCPUs:   p.IdleCPUs + q.IdleCPUs,
	}
}

// peakRSSKiB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func peakRSSKiB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
