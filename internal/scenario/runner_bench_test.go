package scenario

import (
	"fmt"
	"testing"
)

// BenchmarkShardScaling sweeps the cell-shard worker count over a small
// filtered matrix — the scenario-runner leg of the engine scaling curve
// (scripts/bench.sh folds it into BENCH_<date>.json alongside the
// engine-level numbers). Each cell already runs two engine legs, so this
// measures end-to-end shard parallelism, not the round loop alone.
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := DefaultMatrix(true, 99)
				if err := m.FilterFamilies("gnp,components"); err != nil {
					b.Fatal(err)
				}
				if err := m.FilterProtocols("connectivity,triangle"); err != nil {
					b.Fatal(err)
				}
				rep := runMatrix(b, m, shards)
				if s := rep.Summary; s.Divergences+s.Infra > 0 {
					b.Fatalf("shards=%d: %d divergences, %d infra failures", shards, s.Divergences, s.Infra)
				}
			}
		})
	}
}
