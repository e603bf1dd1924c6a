package iosim

import (
	"fmt"
	"testing"
)

// BenchmarkStorageWrite prices one N-rank burst (one 1 MB write per
// rank) under each storage stack at two paper scales, so the cost of the
// pluggable pricing layer — and the burst-buffer bookkeeping on top of
// it — stays visible in CI's bench smoke.
func BenchmarkStorageWrite(b *testing.B) {
	for _, kind := range StorageKinds() {
		for _, ranks := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/%dranks", kind, ranks), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Storage = kind
				cfg.Topology = TopologyForCase(ranks/4, ranks)
				cfg.BurstBuffer = DefaultBurstBuffer(ranks / 4)
				fs := New(cfg, "")
				b.SetBytes(int64(ranks) << 20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fs.BeginBurst(ranks)
					for r := 0; r < ranks; r++ {
						if _, err := fs.WriteSize(r, "plt/Cell_D", 1<<20, Labels{Step: i}); err != nil {
							b.Fatal(err)
						}
					}
					fs.EndBurst()
					if i%1024 == 1023 {
						b.StopTimer()
						fs.Reset() // bound ledger memory on long -benchtime runs
						b.StartTimer()
					}
				}
			})
		}
	}
}
