package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/nvme-cr/nvmecr"
	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// microfs's default region sizes, used to classify plane offsets.
const (
	defaultLogBytes  = 4 * mib
	defaultSnapBytes = 64 * mib
)

// options configures one benchmark process's cycles.
type options struct {
	w    workload
	seed uint64
	// ledger installs the timing wrappers at every layer boundary.
	ledger bool
	// poolTrace sets PoolConfig.Tracer, so the per-phase wire, queue
	// and service histograms fill. It changes the wire format.
	poolTrace bool
	// spanBudget bounds the spans kept in memory across the run (nil
	// keeps none; the aggregates are computed either way).
	spanBudget *atomic.Int64
	// beforeRestart, when set, runs between the checkpoint phase and
	// the restart round (tests use it to corrupt a retained file).
	beforeRestart func(c *cycle) error
}

// rankState is one rank's slice of the stack in the current phase.
type rankState struct {
	id   int
	env  *sim.Env
	inst *microfs.Instance
	led  *ledger

	attempted, failed int64
	committed         int64 // files committed
	written, verified int64 // user bytes
	wall, barrierWait time.Duration
	recoverDur        time.Duration
	firstErr          error
	readBuf           []byte
}

func (rs *rankState) fail(err error) {
	rs.failed++
	if rs.firstErr == nil {
		rs.firstErr = err
	}
}

// cycle is one set-up, checkpoint phase, restart round and tear-down.
type cycle struct {
	o     options
	index int
	in    *inputs

	targets []*nvmeof.Target
	addrs   []string
	pools   []*nvmeof.HostPool
	closed  []*nvmeof.HostPool // pools already closed, for their counters
	tracer  *telemetry.Tracer
	ns      *vfs.Namespace
	ranks   [ranks]*rankState
	bar     *barrier
	origin  time.Time
}

// cycleResult is what one cycle measured.
type cycleResult struct {
	setup                                     time.Duration
	epochs                                    []time.Duration // barrier-to-barrier, one per epoch
	ckptBytes                                 int64
	files                                     int64
	restartWall                               time.Duration
	restartBytes                              int64
	recover                                   []time.Duration
	targetBytesIn, targetBytesOut, targetCmds uint64
	ckptTargetBytesIn                         uint64
	cpu                                       time.Duration
	heapPeak                                  uint64
	gcCycles, allocBytes                      uint64
	attempted, failed                         int64
	firstErr                                  error
	retries, errors                           uint64
	batchFlushes                              uint64
	batchCmds                                 float64
	snapshots                                 int64
	phases                                    map[string]*hist
	stats                                     ledgerStats
	spans                                     [][]span
	rankWall, barrierWait                     time.Duration
}

// barrier is a reusable rendezvous for the rank goroutines that
// records when each generation released.
type barrier struct {
	mu       sync.Mutex
	n, count int
	ch       chan struct{}
	releases []time.Time
}

func newBarrier(n int) *barrier { return &barrier{n: n, ch: make(chan struct{})} }

func (b *barrier) wait() {
	b.mu.Lock()
	b.count++
	if b.count == b.n {
		b.releases = append(b.releases, time.Now())
		close(b.ch)
		b.ch = make(chan struct{})
		b.count = 0
		b.mu.Unlock()
		return
	}
	ch := b.ch
	b.mu.Unlock()
	<-ch
}

// traceID names one rank's epoch (or restart round) within a run.
func traceID(cycle, epoch, rank int) uint64 {
	return uint64(cycle)<<32 | uint64(epoch)<<8 | uint64(rank)
}

// restartEpoch is the epoch slot of the restart round in trace IDs.
const restartEpoch = 0xFFFFFF

func (c *cycle) logBytes() int64 {
	if c.o.w.logBytes > 0 {
		return c.o.w.logBytes
	}
	return defaultLogBytes
}

// setup brings up the targets, dials the pools, mounts one microfs per
// rank and generates the payloads.
func (c *cycle) setup() error {
	w := c.o.w
	for t := 0; t < w.targets(); t++ {
		tgt := nvmeof.NewTarget()
		if err := tgt.AddNamespace(1, nvmeof.NewMemNamespace(ranks*w.partitionBytes())); err != nil {
			return err
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			tgt.Close()
			return err
		}
		c.targets = append(c.targets, tgt)
		c.addrs = append(c.addrs, addr)
	}
	if c.o.poolTrace {
		c.tracer = telemetry.NewTracer(io.Discard)
	}
	if err := c.dial(); err != nil {
		return err
	}
	c.ns = nvmecr.NewNamespace(nil)
	for r := range c.ranks {
		rs := &rankState{id: r, env: sim.NewEnv()}
		if c.o.ledger {
			rs.led = newLedger(c.origin, c.logBytes(), defaultSnapBytes, c.o.spanBudget)
		}
		c.ranks[r] = rs
		inst, err := c.mount(rs, c.ns)
		if err != nil {
			return err
		}
		rs.inst = inst
	}
	c.in = newInputs(w, c.o.seed)
	return nil
}

// dial opens one pool per target with the default PoolConfig apart
// from QueuePairs (and the tracer on traced runs).
func (c *cycle) dial() error {
	c.pools = nil
	for _, addr := range c.addrs {
		p, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{QueuePairs: c.o.w.queuePairs(), Tracer: c.tracer})
		if err != nil {
			return err
		}
		c.pools = append(c.pools, p)
	}
	return nil
}

// closePools closes the live pools, keeping them for their counters.
func (c *cycle) closePools() {
	for _, p := range c.pools {
		p.Close()
	}
	c.closed = append(c.closed, c.pools...)
	c.pools = nil
}

// mount builds rs's plane stack over the live pools, creates a
// production microfs on it with its background thread, and mounts it
// at /rank<N> in ns.
func (c *cycle) mount(rs *rankState, ns *vfs.Namespace) (*microfs.Instance, error) {
	w := c.o.w
	var children []plane.Plane
	for _, pool := range c.pools {
		var q nvmeof.Queue = pool
		if rs.led != nil {
			q = wrapQueue(pool, rs.led)
		}
		tp, err := nvmeof.NewTCPPlane(q, int64(rs.id)*w.partitionBytes(), w.partitionBytes())
		if err != nil {
			return nil, err
		}
		children = append(children, tp)
	}
	pl := children[0]
	if w.mirror {
		mp, err := nvmeof.NewMirroredPlane(children, mirrorUnit, 2)
		if err != nil {
			return nil, err
		}
		pl = mp
	}
	if rs.led != nil {
		pl = wrapPlane(pl, rs.led)
	}
	inst, err := microfs.New(rs.env, microfs.Config{
		Plane:    pl,
		Host:     model.Default().Host,
		Features: microfs.AllFeatures(),
		LogBytes: w.logBytes,
		Rank:     rs.id,
	})
	if err != nil {
		return nil, err
	}
	var backend vfs.Backend = inst
	if rs.led != nil {
		backend = &backendTimer{inner: inst, led: rs.led}
	}
	if _, err := ns.Mount(nvmecr.MountConfig{Path: rankMount(rs.id), Backend: backend}); err != nil {
		return nil, err
	}
	inst.StartBackground()
	return inst, nil
}

func rankMount(r int) string { return fmt.Sprintf("/rank%d", r) }

// runRanks runs body as one simulated process per rank, each rank in
// its own environment and goroutine, and waits for all of them.
func (c *cycle) runRanks(body func(rs *rankState, p *sim.Proc)) {
	var wg sync.WaitGroup
	for _, rs := range c.ranks {
		wg.Add(1)
		go func(rs *rankState) {
			defer wg.Done()
			rs.env.Go("rank", func(p *sim.Proc) {
				start := time.Now()
				body(rs, p)
				rs.wall += time.Since(start)
			})
			if _, err := rs.env.Run(); err != nil {
				rs.fail(fmt.Errorf("rank %d: %w", rs.id, err))
			}
		}(rs)
	}
	wg.Wait()
}

// wait is the epoch barrier, with the rank's time in it recorded.
func (c *cycle) wait(rs *rankState) {
	t := time.Now()
	c.bar.wait()
	rs.barrierWait += time.Since(t)
}

// checkpointPhase runs the workload's epochs on every rank.
func (c *cycle) checkpointPhase() {
	w := c.o.w
	c.runRanks(func(rs *rankState, p *sim.Proc) {
		for e := 0; e < w.epochs; e++ {
			c.wait(rs)
			rs.led.setTrace(traceID(c.index, e, rs.id))
			c.commitEpoch(rs, p, e)
			if e >= keep {
				c.dropEpoch(rs, p, e-keep)
			}
			c.wait(rs)
		}
		c.stopBackground(rs, p)
	})
}

func (c *cycle) stopBackground(rs *rankState, p *sim.Proc) {
	d := rs.led.begin(layerMicrofs, "microfs.stop-background")
	rs.inst.StopBackground(p)
	rs.led.end(d, regionNone, false, 0)
}

// vfsCall wraps one app call into the namespace in a vfs span.
func vfsCall[T any](rs *rankState, name string, call func() (T, error)) (T, error) {
	d := rs.led.begin(layerVFS, name)
	v, err := call()
	rs.led.end(d, regionNone, false, 0)
	return v, err
}

func (c *cycle) commitEpoch(rs *rankState, p *sim.Proc, e int) {
	w := c.o.w
	mp := rankMount(rs.id)
	if dir := w.epochDir(e); dir != "" {
		rs.attempted++
		if _, err := vfsCall(rs, "vfs.mkdir", func() (struct{}, error) {
			return struct{}{}, c.ns.Mkdir(p, mp+dir, 0o755)
		}); err != nil {
			rs.fail(fmt.Errorf("mkdir %s: %w", dir, err))
			return
		}
	}
	for i := 0; i < w.files; i++ {
		f := c.in.file(rs.id, e, i)
		rs.attempted++
		if err := c.commitFile(rs, p, mp+f.path, c.in.content(rs.id, f)); err != nil {
			rs.fail(fmt.Errorf("commit %s: %w", f.path, err))
			continue
		}
		rs.committed++
		rs.written += f.size
	}
}

// commitFile is create → write in app-sized calls → fsync → close.
func (c *cycle) commitFile(rs *rankState, p *sim.Proc, path string, data []byte) error {
	f, err := vfsCall(rs, "vfs.open", func() (vfs.File, error) {
		return c.ns.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
	})
	if err != nil {
		return err
	}
	chunk := c.o.w.appIO
	for off := int64(0); off < int64(len(data)) && err == nil; off += chunk {
		end := min(off+chunk, int64(len(data)))
		_, err = vfsCall(rs, "vfs.write", func() (int, error) { return f.Write(p, data[off:end]) })
	}
	if err == nil {
		_, err = vfsCall(rs, "vfs.fsync", func() (struct{}, error) { return struct{}{}, f.Fsync(p) })
	}
	_, cerr := vfsCall(rs, "vfs.close", func() (struct{}, error) { return struct{}{}, f.Close(p) })
	return errors.Join(err, cerr)
}

func (c *cycle) dropEpoch(rs *rankState, p *sim.Proc, e int) {
	mp := rankMount(rs.id)
	for i := 0; i < c.o.w.files; i++ {
		f := c.in.file(rs.id, e, i)
		rs.attempted++
		if _, err := vfsCall(rs, "vfs.unlink", func() (struct{}, error) {
			return struct{}{}, c.ns.Unlink(p, mp+f.path)
		}); err != nil {
			rs.fail(fmt.Errorf("unlink %s: %w", f.path, err))
		}
	}
}

// restartRound plays a fresh process: re-dial, mount fresh instances,
// Recover, then list and read-verify every retained file.
func (c *cycle) restartRound() {
	if err := c.dial(); err != nil {
		c.ranks[0].attempted++
		c.ranks[0].fail(fmt.Errorf("re-dial: %w", err))
		return
	}
	ns := nvmecr.NewNamespace(nil)
	for _, rs := range c.ranks {
		rs.env = sim.NewEnv()
	}
	c.bar = newBarrier(ranks)
	c.runRanks(func(rs *rankState, p *sim.Proc) {
		rs.led.setTrace(traceID(c.index, restartEpoch, rs.id))
		rs.attempted++
		ok := c.recoverRank(rs, p, ns)
		// Every rank recovers before any reads its checkpoint, as
		// NVMe-CR recovers inside the collective MPI_Init.
		c.wait(rs)
		if ok {
			c.verifyRank(rs, p, ns)
			c.stopBackground(rs, p)
		}
	})
}

// recoverRank mounts a fresh instance for rs and runs Recover on it.
func (c *cycle) recoverRank(rs *rankState, p *sim.Proc, ns *vfs.Namespace) bool {
	d := rs.led.begin(layerApp, "app.mount")
	inst, err := c.mount(rs, ns)
	rs.led.end(d, regionNone, false, 0)
	if err != nil {
		rs.fail(fmt.Errorf("restart mount: %w", err))
		return false
	}
	rs.inst = inst
	d = rs.led.begin(layerMicrofs, "microfs.recover")
	t := time.Now()
	err = inst.Recover(p)
	rs.recoverDur = time.Since(t)
	rs.led.end(d, regionNone, false, 0)
	if err != nil {
		rs.fail(fmt.Errorf("recover: %w", err))
		c.stopBackground(rs, p)
		return false
	}
	return true
}

// verifyRank lists (when the workload uses directories), stats and
// read-verifies every file the rank retained.
func (c *cycle) verifyRank(rs *rankState, p *sim.Proc, ns *vfs.Namespace) {
	w := c.o.w
	mp := rankMount(rs.id)
	first := max(0, w.epochs-keep)
	if w.mkdir {
		rs.attempted++
		ents, err := vfsCall(rs, "vfs.readdir", func() ([]vfs.FileInfo, error) { return ns.ReadDir(p, mp) })
		if err != nil || len(ents) != w.epochs {
			rs.fail(fmt.Errorf("readdir %s: %d entries, want %d (%v)", mp, len(ents), w.epochs, err))
		}
	}
	for e := first; e < w.epochs; e++ {
		if dir := w.epochDir(e); dir != "" {
			rs.attempted++
			ents, err := vfsCall(rs, "vfs.readdir", func() ([]vfs.FileInfo, error) { return ns.ReadDir(p, mp+dir) })
			if err == nil {
				err = c.checkListing(rs, e, ents)
			}
			if err != nil {
				rs.fail(fmt.Errorf("readdir %s: %w", dir, err))
			}
		}
		for i := 0; i < w.files; i++ {
			f := c.in.file(rs.id, e, i)
			rs.attempted++
			if err := c.verifyFile(rs, p, ns, mp, f); err != nil {
				rs.fail(fmt.Errorf("verify %s: %w", f.path, err))
				continue
			}
			rs.verified += f.size
		}
	}
}

// checkListing compares a directory listing with the epoch's files.
func (c *cycle) checkListing(rs *rankState, e int, ents []vfs.FileInfo) error {
	if len(ents) != c.o.w.files {
		return fmt.Errorf("%d entries, want %d", len(ents), c.o.w.files)
	}
	want := make(map[string]int64, c.o.w.files)
	for i := 0; i < c.o.w.files; i++ {
		f := c.in.file(rs.id, e, i)
		want[f.path[len(f.dir)+1:]] = f.size
	}
	for _, ent := range ents {
		name := ent.Path[strings.LastIndexByte(ent.Path, '/')+1:]
		if size, ok := want[name]; !ok || size != ent.Size {
			return fmt.Errorf("unexpected entry %s (%d bytes)", ent.Path, ent.Size)
		}
	}
	return nil
}

func (c *cycle) verifyFile(rs *rankState, p *sim.Proc, ns *vfs.Namespace, mp string, f fileSpec) error {
	path := mp + f.path
	if c.o.w.mkdir {
		fi, err := vfsCall(rs, "vfs.stat", func() (vfs.FileInfo, error) { return ns.Stat(p, path) })
		if err != nil {
			return err
		}
		if fi.Size != f.size {
			return fmt.Errorf("stat size %d, want %d", fi.Size, f.size)
		}
	}
	fh, err := vfsCall(rs, "vfs.open", func() (vfs.File, error) { return ns.Open(p, path, vfs.O_RDONLY, 0) })
	if err != nil {
		return err
	}
	if int64(cap(rs.readBuf)) < f.size {
		rs.readBuf = make([]byte, c.o.w.maxFile)
	}
	buf := rs.readBuf[:f.size]
	var got int64
	for got < f.size {
		end := min(got+c.o.w.appIO, f.size)
		n, rerr := vfsCall(rs, "vfs.read", func() (int, error) { return fh.Read(p, buf[got:end]) })
		if rerr != nil {
			err = rerr
			break
		}
		if n == 0 {
			break
		}
		got += int64(n)
	}
	_, cerr := vfsCall(rs, "vfs.close", func() (struct{}, error) { return struct{}{}, fh.Close(p) })
	if err = errors.Join(err, cerr); err != nil {
		return err
	}
	d := rs.led.begin(layerApp, "app.verify")
	same := got == f.size && bytes.Equal(buf, c.in.content(rs.id, f))
	rs.led.end(d, regionNone, false, 0)
	if !same {
		return fmt.Errorf("content mismatch (%d of %d bytes read)", got, f.size)
	}
	return nil
}

// teardown stops every pool and target the cycle started.
func (c *cycle) teardown() {
	c.closePools()
	for _, t := range c.targets {
		t.Close()
	}
	c.targets = nil
}

// sampler records the peak Go heap in use until stopped.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw.
func (s *sampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// meter measures CPU, GC and peak heap over one phase.
type meter struct {
	cpu         time.Duration
	gcs, allocs uint64
	heap        *sampler
}

func startMeter() meter {
	gcs, allocs := gcCounters()
	return meter{cpu: cpuTime(), gcs: gcs, allocs: allocs, heap: startSampler()}
}

// stop adds the phase's CPU, GC cycles and allocation to res and
// raises res.heapPeak to the phase's peak.
func (m meter) stop(res *cycleResult) {
	res.heapPeak = max(res.heapPeak, m.heap.finish())
	res.cpu += cpuTime() - m.cpu
	gcs, allocs := gcCounters()
	res.gcCycles += gcs - m.gcs
	res.allocBytes += allocs - m.allocs
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCounters reads the GC cycle count and cumulative heap allocation.
func gcCounters() (cycles, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runCycle runs one full cycle and tears it down, whatever happens.
func runCycle(o options, index int, origin time.Time) (res cycleResult) {
	c := &cycle{o: o, index: index, origin: origin, bar: newBarrier(ranks)}
	defer c.teardown()
	t0 := time.Now()
	if err := c.setup(); err != nil {
		res.attempted, res.failed, res.firstErr = 1, 1, fmt.Errorf("setup: %w", err)
		return res
	}
	res.setup = time.Since(t0)

	m := startMeter()
	c.checkpointPhase()
	m.stop(&res)
	for i := 0; i+1 < len(c.bar.releases); i += 2 {
		res.epochs = append(res.epochs, c.bar.releases[i+1].Sub(c.bar.releases[i]))
	}
	for _, t := range c.targets {
		res.ckptTargetBytesIn += t.Snapshot().BytesIn
	}
	for _, rs := range c.ranks {
		res.snapshots += rs.inst.Stats().Snapshots
	}
	// The checkpointing process dies: its pools go away with it, and
	// the restarting process starts with a fresh heap.
	c.closePools()
	if o.beforeRestart != nil {
		if err := o.beforeRestart(c); err != nil {
			c.ranks[0].attempted++
			c.ranks[0].fail(fmt.Errorf("before restart: %w", err))
		}
	}
	runtime.GC()
	m = startMeter()
	t1 := time.Now()
	c.restartRound()
	res.restartWall = time.Since(t1)
	m.stop(&res)

	c.closePools()
	for _, t := range c.targets {
		s := t.Snapshot()
		res.targetBytesIn += s.BytesIn
		res.targetBytesOut += s.BytesOut
		res.targetCmds += s.Commands
	}
	res.phases = map[string]*hist{}
	for _, p := range c.closed {
		for _, s := range p.Snapshot() {
			res.retries += s.Retries
			res.errors += s.Errors
		}
		snap := p.Telemetry().Snapshot(nil)
		for i := range snap.Instruments {
			in := &snap.Instruments[i]
			switch in.Name {
			case nvmeof.MetricQPPhaseWire, nvmeof.MetricQPPhaseQueue, nvmeof.MetricQPPhaseService:
				h := res.phases[in.Name]
				if h == nil {
					h = &hist{bounds: in.Bounds, counts: make([]uint64, len(in.Counts))}
					res.phases[in.Name] = h
				}
				h.add(in.Counts)
			case nvmeof.MetricQPBatchFlushes:
				res.batchFlushes += in.U
			case nvmeof.MetricQPBatchCommands:
				res.batchCmds += in.Sum
			}
		}
	}
	res.stats = newLedgerStats()
	for _, rs := range c.ranks {
		res.attempted += rs.attempted
		res.failed += rs.failed
		if res.firstErr == nil {
			res.firstErr = rs.firstErr
		}
		res.files += rs.committed
		res.ckptBytes += rs.written
		res.restartBytes += rs.verified
		res.recover = append(res.recover, rs.recoverDur)
		res.rankWall += rs.wall
		res.barrierWait += rs.barrierWait
		if rs.led != nil {
			res.stats.merge(&rs.led.stats)
			res.spans = append(res.spans, rs.led.spans)
		}
	}
	return res
}

// hist is a bucketed latency histogram merged across queue pairs.
type hist struct {
	bounds []float64
	counts []uint64
}

func (h *hist) add(counts []uint64) {
	for i, c := range counts {
		h.counts[i] += c
	}
}

// quantile interpolates within the owning bucket, like
// telemetry.InstrumentSnapshot.Quantile.
func (h *hist) quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	snap := telemetry.InstrumentSnapshot{Kind: telemetry.KindHistogram, Bounds: h.bounds, Counts: h.counts}
	for _, c := range h.counts {
		snap.U += c
	}
	return snap.Quantile(q)
}

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}
