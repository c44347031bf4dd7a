package nvmeof

import (
	"testing"
	"time"
)

// TestBatchedSteadyStateAllocs is the polled-path allocation gate: the
// batched small-command steady state — slot ring, merge path, vectored
// flush, completion fan-out — must run at zero heap allocations per
// operation. The count is process-wide (testing.Benchmark measures
// mallocs across every goroutine, the in-process target included), so
// a regression on either end of the fabric trips it.
func TestBatchedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("runs a full testing.Benchmark")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchPool(b, 512, 0, PoolConfig{QueuePairs: 2})
	})
	if a := res.AllocsPerOp(); a > 0 {
		t.Errorf("batched steady state allocates %d objects/op, want 0", a)
	}
}

// TestDeviceBoundBytesPerOp pins the fix for the device-bound write
// amplification: steady-state 16KB overwrites must not splice a fresh
// extent per command (the covered-range path copies in place), must
// reuse the target's per-slot payload buffer, and must ride the host's
// zero-copy iovec path. Before the fix the same workload allocated
// ~25KB per 16KB op — more heap traffic than payload.
func TestDeviceBoundBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("runs a full testing.Benchmark")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchPool(b, 16*1024, 20*time.Microsecond, PoolConfig{QueuePairs: 1})
	})
	// Observed ~1-2.5KB/op healthy (short benchmark runs amortize the
	// fixed dials and lazy per-slot state less); the splice regression
	// sat at ~25KB/op. Gate at half the payload size.
	if bpo := res.AllocedBytesPerOp(); bpo > 8192 {
		t.Errorf("device-bound steady state allocates %d B/op for 16KB commands, want <=8192", bpo)
	}
}
