package nvmeof

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/plane"
)

// The equivalence property: a seeded randomized workload run against a
// single-target plane and against a StripedPlane over 2/3/4 targets
// must produce byte-identical read-back and identical durability
// semantics, including when targets are killed and restarted mid-batch.
// Kills are scheduled by the shared internal/faults plan format — one
// plan per world, same seed, evaluated at the same op-space points, so
// both worlds take their hits at the same moments. Every write retries
// until acknowledged, so an acked write surviving restart is exactly
// the durability both worlds must share. Failures print the seed.

const (
	eqStripeUnit = 4 * 1024
	eqChildSize  = 64 * 1024 // per-target namespace
	eqBursts     = 5
	eqBurstWidth = 4 // concurrent writes per burst — what batches form from
	eqMaxWrite   = 8 * 1024
)

// eqWorld is one side of the comparison: a plane plus the target
// processes behind it, restartable in place.
type eqWorld struct {
	t      *testing.T
	plane  plane.Plane
	sp     *StripedPlane
	plan   *faults.Plan
	expect []byte

	mu      sync.Mutex
	targets []*Target
	nss     []*MemNamespace
	addrs   []string
}

// newEqWorld builds a world of n targets (n=1 is the single-target
// reference) striped at eqStripeUnit, each of total/n bytes so every
// world exposes exactly `total` bytes and offsets mean the same thing.
func newEqWorld(t *testing.T, n int, total, seed int64) *eqWorld {
	return newMirroredEqWorld(t, n, 1, total, seed)
}

// newMirroredEqWorld builds a world of groups*replicas targets mirrored
// R-way: the striped address space is `total` bytes over `groups`
// mirror groups, each member namespace total/groups bytes, so every
// world (single, striped, mirrored) exposes identical capacity and
// offsets mean the same thing.
func newMirroredEqWorld(t *testing.T, groups, replicas int, total, seed int64) *eqWorld {
	t.Helper()
	n := groups * replicas
	w := &eqWorld{
		t: t,
		plan: faults.NewPlan(seed, faults.Rule{
			Name: "burst-kill", Layer: faults.LayerProcess, Op: "burst",
			Probability: 0.3, Count: 2, Kind: faults.KindCrash,
		}),
	}
	children := make([]plane.Plane, n)
	childSize := total / int64(groups)
	for i := 0; i < n; i++ {
		ns := NewMemNamespace(childSize)
		tgt := NewTarget()
		if err := tgt.AddNamespace(1, ns); err != nil {
			t.Fatal(err)
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pool, err := DialPool(addr, 1, PoolConfig{
			QueuePairs:       2,
			CommandTimeout:   time.Second,
			MaxRetries:       2,
			RetryBackoff:     time.Millisecond,
			ReconnectBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		tp, err := NewTCPPlane(pool, 0, childSize)
		if err != nil {
			t.Fatal(err)
		}
		children[i] = tp
		w.targets = append(w.targets, tgt)
		w.nss = append(w.nss, ns)
		w.addrs = append(w.addrs, addr)
	}
	sp, err := NewMirroredPlane(children, eqStripeUnit, replicas)
	if err != nil {
		t.Fatal(err)
	}
	w.plane = sp
	w.sp = sp
	w.expect = make([]byte, sp.Size())
	t.Cleanup(func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		for _, tgt := range w.targets {
			tgt.Close()
		}
	})
	return w
}

// kill closes target i and restarts a fresh Target process on the same
// address exporting the SAME namespace — the device outlives the
// process, exactly the crash model CrashPlane applies to simulated
// planes. Acked (durable) data must survive; in-flight batches die with
// the connections.
func (w *eqWorld) kill(i int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.targets[i].Close()
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, w.nss[i]); err != nil {
		return err
	}
	var err error
	for try := 0; try < 400; try++ {
		if _, err = tgt.Listen(w.addrs[i]); err == nil {
			w.targets[i] = tgt
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("restart target %d: %w", i, err)
}

// wipeKill is the disk-death variant of kill: target i's process dies
// AND its namespace is replaced with a fresh empty one — the data is
// gone. Only a mirror sibling (and migration) can bring the member's
// bytes back. Call it only on a member already marked down.
func (w *eqWorld) wipeKill(i int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.targets[i].Close()
	w.nss[i] = NewMemNamespace(w.nss[i].Size())
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, w.nss[i]); err != nil {
		return err
	}
	var err error
	for try := 0; try < 400; try++ {
		if _, err = tgt.Listen(w.addrs[i]); err == nil {
			w.targets[i] = tgt
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("restart wiped target %d: %w", i, err)
}

// mustSync retries one rebuild chunk until it copies — target kills
// mid-migration make individual chunk syncs fail transiently.
func (w *eqWorld) mustSync(child int, off, length int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := w.sp.SyncChunk(child, off, length)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sync chunk [%d,+%d) of child %d never completed: %w", off, length, child, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mustWrite retries a plane write until it is acknowledged: the workload
// converges regardless of kills, so both worlds end in the same state.
func (w *eqWorld) mustWrite(off int64, data []byte) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := w.plane.Write(nil, off, int64(len(data)), data, 0)
		if err == nil {
			w.mu.Lock()
			copy(w.expect[off:], data)
			w.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("write [%d,+%d) never acked: %w", off, len(data), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mustRead retries a plane read until it succeeds.
func (w *eqWorld) mustRead(off, length int64) ([]byte, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, err := w.plane.Read(nil, off, length, 0)
		if err == nil {
			return data, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("read [%d,+%d) never served: %w", off, length, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mustFlush retries the durability barrier until every target accepts.
func (w *eqWorld) mustFlush() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := w.plane.Flush(nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("flush never completed: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runBurst issues eqBurstWidth disjoint-offset writes concurrently.
// When the world's fault plan fires on this burst, one target is killed
// concurrently with the writes — mid-batch — and restarted.
func (w *eqWorld) runBurst(burst int, offs []int64, payloads [][]byte) error {
	errs := make([]error, len(offs)+1)
	var wg sync.WaitGroup
	if _, fire := w.plan.Eval(faults.Point{
		Layer: faults.LayerProcess, Op: "burst", Rank: -1, Now: time.Duration(burst),
	}); fire {
		victim := burst % len(w.targets)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[len(offs)] = w.kill(victim)
		}()
	}
	for i := range offs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.mustWrite(offs[i], payloads[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// eqIteration runs one seeded workload against the single-target world
// and a striped world of the given width, comparing as it goes.
func eqIteration(t *testing.T, seed int64, width int) {
	t.Helper()
	// A total that tiles exactly into whole stripe units for width 1
	// and for this width, so both worlds expose identical capacity.
	total := (4 * int64(eqChildSize)) / (eqStripeUnit * int64(width)) * (eqStripeUnit * int64(width))
	single := newEqWorld(t, 1, total, seed)
	striped := newEqWorld(t, width, total, seed)
	if single.plane.Size() != total || striped.plane.Size() != total {
		t.Fatalf("seed %d: world sizes diverge: %d vs %d (want %d)",
			seed, single.plane.Size(), striped.plane.Size(), total)
	}
	size := total
	rng := rand.New(rand.NewSource(seed))

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed=%d width=%d: %s\nsingle: %s\nstriped: %s",
			seed, width, fmt.Sprintf(format, args...),
			single.plan.FormatTrace(), striped.plan.FormatTrace())
	}

	for burst := 0; burst < eqBursts; burst++ {
		// Disjoint offsets keep concurrent content deterministic: carve
		// the space into burst-width slots and write inside each.
		slot := size / eqBurstWidth
		offs := make([]int64, eqBurstWidth)
		payloads := make([][]byte, eqBurstWidth)
		for i := range offs {
			length := 1 + rng.Int63n(eqMaxWrite)
			if length > slot {
				length = slot
			}
			offs[i] = int64(i)*slot + rng.Int63n(slot-length+1)
			payloads[i] = make([]byte, length)
			rng.Read(payloads[i])
		}
		if err := single.runBurst(burst, offs, payloads); err != nil {
			fail("single world burst %d: %v", burst, err)
		}
		if err := striped.runBurst(burst, offs, payloads); err != nil {
			fail("striped world burst %d: %v", burst, err)
		}

		// Durability barrier, then a randomized cross-check read.
		if err := single.mustFlush(); err != nil {
			fail("single flush after burst %d: %v", burst, err)
		}
		if err := striped.mustFlush(); err != nil {
			fail("striped flush after burst %d: %v", burst, err)
		}
		length := 1 + rng.Int63n(4*eqStripeUnit)
		off := rng.Int63n(size - length)
		a, err := single.mustRead(off, length)
		if err != nil {
			fail("single read after burst %d: %v", burst, err)
		}
		b, err := striped.mustRead(off, length)
		if err != nil {
			fail("striped read after burst %d: %v", burst, err)
		}
		if !bytes.Equal(a, b) {
			fail("burst %d: read [%d,+%d) diverges between worlds", burst, off, length)
		}
	}

	// Full read-back: both worlds byte-identical to the expected image —
	// every acked write survived every kill.
	a, err := single.mustRead(0, size)
	if err != nil {
		fail("single full read: %v", err)
	}
	b, err := striped.mustRead(0, size)
	if err != nil {
		fail("striped full read: %v", err)
	}
	if !bytes.Equal(a, b) {
		fail("full read-back diverges between worlds")
	}
	if !bytes.Equal(a, single.expect) {
		fail("single world lost acked data")
	}
	if !bytes.Equal(b, striped.expect) {
		fail("striped world lost acked data")
	}
}

// TestStripedSingleEquivalence is the acceptance property: 100 seeded
// iterations (>= 20 in -short mode) across stripe widths 2, 3, and 4,
// each with probabilistic mid-batch target kills. Reproduce any failure
// by its printed seed.
func TestStripedSingleEquivalence(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 20
	}
	const baseSeed = 0xC0FFEE
	for i := 0; i < iters; i++ {
		seed := int64(baseSeed + i)
		width := 2 + i%3
		t.Run(fmt.Sprintf("seed=%d/width=%d", seed, width), func(t *testing.T) {
			eqIteration(t, seed, width)
		})
	}
}
