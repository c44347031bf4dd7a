package main

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
)

const testSeed = 7

func oneCycle(o options) cycleResult { return runCycle(o, 0, time.Now()) }

func TestInputsSeeded(t *testing.T) {
	for _, w := range workloads {
		a := newInputs(w, 1).digest(w.epochs)
		b := newInputs(w, 1).digest(w.epochs)
		c := newInputs(w, 2).digest(w.epochs)
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

// TestWrappersForwardOptionalInterfaces pins that a timing wrapper
// implements an optional interface exactly when the wrapped value does.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tgt := nvmeof.NewTarget()
	if err := tgt.AddNamespace(1, nvmeof.NewMemNamespace(8*model.MB)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	pool, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{QueuePairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	led := newLedger(time.Now(), defaultLogBytes, defaultSnapBytes, nil)
	q := wrapQueue(pool, led)
	if _, ok := q.(nvmeof.VectorQueue); !ok {
		t.Error("wrapped HostPool lost nvmeof.VectorQueue")
	}
	tp, err := nvmeof.NewTCPPlane(q, 0, 4*model.MB)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapPlane(tp, led).(plane.VectorWriter); !ok {
		t.Error("wrapped TCPPlane lost plane.VectorWriter")
	}
	mp, err := nvmeof.NewMirroredPlane([]plane.Plane{tp, tp}, mirrorUnit, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, mpV := plane.Plane(mp).(plane.VectorWriter)
	if _, ok := wrapPlane(mp, led).(plane.VectorWriter); ok != mpV {
		t.Errorf("wrapped StripedPlane VectorWriter = %v, unwrapped = %v", ok, mpV)
	}
}

// TestWrappersTransparent runs every workload at a fixed seed twice
// wrapped and once unwrapped: the wrappers must not change what reaches
// the targets, and the wrapped counts must repeat exactly.
func TestWrappersTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := oneCycle(options{w: w, seed: testSeed})
			a := oneCycle(options{w: w, seed: testSeed, ledger: true})
			b := oneCycle(options{w: w, seed: testSeed, ledger: true})
			for i, r := range []cycleResult{plain, a, b} {
				if r.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, r.failed, r.attempted, r.firstErr)
				}
			}
			for _, r := range []cycleResult{a, b} {
				if r.targetCmds != plain.targetCmds || r.targetBytesIn != plain.targetBytesIn {
					t.Errorf("wrapped target cmds/bytes_in = %d/%d, unwrapped %d/%d",
						r.targetCmds, r.targetBytesIn, plain.targetCmds, plain.targetBytesIn)
				}
				if r.ckptTargetBytesIn != plain.ckptTargetBytesIn || r.ckptBytes != plain.ckptBytes {
					t.Errorf("wrapped write_amp %d/%d, unwrapped %d/%d",
						r.ckptTargetBytesIn, r.ckptBytes, plain.ckptTargetBytesIn, plain.ckptBytes)
				}
			}
			if a.stats.walWrites != b.stats.walWrites || a.stats.walWrites == 0 {
				t.Errorf("wal.dev_writes %d then %d", a.stats.walWrites, b.stats.walWrites)
			}
		})
	}
}

// TestVerifyBreakDemo flips one byte of a retained file on the target,
// through a separate queue pair outside microfs, before the restart
// round: the run must report the mismatch.
func TestVerifyBreakDemo(t *testing.T) {
	w, _ := findWorkload("ckpt-nn")
	res := oneCycle(options{w: w, seed: testSeed, ledger: true, beforeRestart: func(c *cycle) error {
		// Rank 0's partition starts at namespace offset 0; its latest
		// data write belongs to its newest, retained, checkpoint.
		off := c.ranks[0].led.lastData
		h, err := nvmeof.Dial(c.addrs[0], 1)
		if err != nil {
			return err
		}
		defer h.Close()
		b, err := h.ReadAt(off, 1)
		if err != nil {
			return err
		}
		if err := h.WriteAt(off, []byte{b[0] ^ 0xFF}); err != nil {
			return err
		}
		return h.Flush()
	}})
	if res.failed != 1 || res.firstErr == nil || !strings.Contains(res.firstErr.Error(), "content mismatch") {
		t.Fatalf("corrupted byte: %d failures, first %v; want one content mismatch", res.failed, res.firstErr)
	}
}

// TestTeardownStopsEverything runs every workload, plain and traced,
// and waits for the goroutine count to return to its baseline: every
// pool, target and microfs background thread must have stopped.
func TestTeardownStopsEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if r := oneCycle(options{w: w, seed: testSeed, ledger: traced, poolTrace: traced}); r.failed != 0 {
				t.Fatalf("%s: %v", w.name, r.firstErr)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the runs, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSmallLogFillsUnderBackgroundSnapshots pins a known microfs defect
// that sets ckpt-small's LogBytes: with a log too small to hold one
// cycle, background snapshots race with the application's appends and
// never truncate the log, and a forced snapshot that finds one in
// flight waits for it and returns without space, so the operation fails
// with "log region full". Flip this test when the defect is fixed.
func TestSmallLogFillsUnderBackgroundSnapshots(t *testing.T) {
	w, _ := findWorkload("ckpt-small")
	w.logBytes = 32 * kib
	res := oneCycle(options{w: w, seed: testSeed})
	if res.failed == 0 || !strings.Contains(res.firstErr.Error(), "log region full") {
		t.Fatalf("LogBytes=32KiB: %d failures (first %v); the defect no longer shows", res.failed, res.firstErr)
	}
}
