package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// layer is one module boundary the ledger times from outside.
type layer uint8

const (
	// layerApp is benchmark-side work inside a rank that is not a call
	// into the stack: payload comparison and restart-time mounting.
	layerApp layer = iota
	layerVFS
	layerMicrofs
	layerPlane
	layerQueue
	nLayers
)

var layerNames = [nLayers]string{"app", "vfs", "microfs", "plane", "queue"}

// region is the part of a microfs partition a plane call lands in.
type region uint8

const (
	regionNone region = iota
	regionWAL
	regionSnap
	regionData
)

// span is one timed call across a layer boundary. Spans of one rank's
// epoch (or restart round) share a Trace ID.
type span struct {
	ID     int32
	Parent int32 // -1 at the root of a rank's call tree
	Trace  uint64
	Layer  layer
	Name   string
	Start  int64 // ns since the ledger's origin
	End    int64
}

// frame is an open span on a rank's call stack.
type frame struct {
	id    int32
	layer layer
	name  string
	start int64
	child int64 // ns covered by direct children
}

// cmdKey is one command shape, kept for the model replay.
type cmdKey struct {
	op    byte // 'w'rite, 'r'ead, 'f'lush or 'i'dentify
	bytes int64
}

// ledgerStats are the per-layer aggregates one ledger accumulates.
type ledgerStats struct {
	calls  [nLayers]int64
	selfNS [nLayers]int64
	topNS  int64 // time inside spans with no parent

	lat map[string][]float64 // call durations in µs, by metric key

	walWrites, walBytes, walNS             int64
	snapWrites, snapBytes, snapNS, snapFgN int64
	planeNS, planeChildNS                  int64 // plane call time, and queue time inside it
	queueWriteBytes                        int64 // payload the plane layer sent down
	cmds                                   map[cmdKey]int64
}

func newLedgerStats() ledgerStats {
	return ledgerStats{lat: map[string][]float64{}, cmds: map[cmdKey]int64{}}
}

// merge adds o into s.
func (s *ledgerStats) merge(o *ledgerStats) {
	for i := range s.calls {
		s.calls[i] += o.calls[i]
		s.selfNS[i] += o.selfNS[i]
	}
	s.topNS += o.topNS
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	s.walWrites += o.walWrites
	s.walBytes += o.walBytes
	s.walNS += o.walNS
	s.snapWrites += o.snapWrites
	s.snapBytes += o.snapBytes
	s.snapNS += o.snapNS
	s.snapFgN += o.snapFgN
	s.planeNS += o.planeNS
	s.planeChildNS += o.planeChildNS
	s.queueWriteBytes += o.queueWriteBytes
	for k, v := range o.cmds {
		s.cmds[k] += v
	}
}

// ledger records one rank's spans. Calls above the queue layer are
// strictly nested: the rank's process and its microfs background
// thread run one at a time under the simulator, so one stack per rank
// suffices. Queue calls are leaves and may come from several
// goroutines at once, so everything is behind one mutex.
type ledger struct {
	mu       sync.Mutex
	origin   time.Time
	logBytes int64 // WAL region [0, logBytes) of the partition
	snapEnd  int64 // snapshot region [logBytes, snapEnd)
	trace    uint64
	// lastData is the partition offset of the latest data-region write
	// carrying a payload (tests use it to find a retained file's bytes).
	lastData int64
	stack    []frame
	nextID   int32
	// budget is the run-wide number of spans still to keep (nil keeps
	// none); the aggregates count every call either way.
	budget *atomic.Int64
	spans  []span
	stats  ledgerStats
}

func newLedger(origin time.Time, logBytes, snapBytes int64, budget *atomic.Int64) *ledger {
	return &ledger{
		origin: origin, logBytes: logBytes, snapEnd: logBytes + snapBytes,
		budget: budget, stats: newLedgerStats(),
	}
}

func (l *ledger) now() int64 { return int64(time.Since(l.origin)) }

// setTrace starts a new trace: every span until the next call shares id.
func (l *ledger) setTrace(id uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.trace = id
	l.mu.Unlock()
}

// record appends a finished span, within the span budget.
func (l *ledger) record(id, parent int32, ly layer, name string, start, end int64) {
	if l.budget == nil || l.budget.Add(-1) < 0 {
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: l.trace, Layer: ly, Name: name, Start: start, End: end})
}

// begin opens a span and returns its stack depth, to hand to end.
func (l *ledger) begin(ly layer, name string) int {
	if l == nil {
		return -1
	}
	t := l.now()
	l.mu.Lock()
	l.nextID++
	l.stack = append(l.stack, frame{id: l.nextID, layer: ly, name: name, start: t})
	depth := len(l.stack) - 1
	l.mu.Unlock()
	return depth
}

// end closes the span begin opened. A plane call passes the region it
// landed in and its bytes so WAL and snapshot traffic are split out.
func (l *ledger) end(depth int, reg region, write bool, bytes int64) {
	if l == nil {
		return
	}
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.stack[depth]
	l.stack = l.stack[:depth]
	dur := t - f.start
	parent := int32(-1)
	if depth > 0 {
		parent = l.stack[depth-1].id
		l.stack[depth-1].child += dur
	} else {
		l.stats.topNS += dur
	}
	l.record(f.id, parent, f.layer, f.name, f.start, t)
	st := &l.stats
	st.calls[f.layer]++
	st.selfNS[f.layer] += dur - f.child
	us := float64(dur) / 1e3
	switch f.layer {
	case layerVFS:
		st.lat[f.name] = append(st.lat[f.name], us)
	case layerMicrofs:
		switch f.name {
		case "microfs.open", "microfs.close", "microfs.mkdir", "microfs.unlink":
			st.lat["microfs.meta"] = append(st.lat["microfs.meta"], us)
		case "microfs.recover":
			st.lat[f.name] = append(st.lat[f.name], us)
		}
	case layerPlane:
		st.planeNS += dur
		st.planeChildNS += f.child
		if !write {
			break
		}
		switch reg {
		case regionWAL:
			st.walWrites++
			st.walBytes += bytes
			st.walNS += dur
		case regionSnap:
			st.snapWrites++
			st.snapBytes += bytes
			st.snapNS += dur
			// The app is blocked on it when a vfs call is open below.
			if len(l.stack) > 0 && l.stack[0].layer == layerVFS {
				st.snapFgN += dur
			}
		}
	}
}

// leaf records one queue call that started at start. Queue calls open
// no frame: they may run concurrently, and nothing nests below them.
func (l *ledger) leaf(name string, start int64, key cmdKey, writeBytes int64) {
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	dur := t - start
	l.nextID++
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
		l.stack[n-1].child += dur
	} else {
		l.stats.topNS += dur
	}
	l.record(l.nextID, parent, layerQueue, name, start, t)
	st := &l.stats
	st.calls[layerQueue]++
	st.selfNS[layerQueue] += dur
	st.lat["host"] = append(st.lat["host"], float64(dur)/1e3)
	st.queueWriteBytes += writeBytes
	st.cmds[key]++
}

// classify maps a partition offset to its microfs region.
func (l *ledger) classify(off int64) region {
	switch {
	case off < l.logBytes:
		return regionWAL
	case off < l.snapEnd:
		return regionSnap
	default:
		return regionData
	}
}

// backendTimer times the vfs.Backend microfs implements.
type backendTimer struct {
	inner vfs.Backend
	led   *ledger
}

func (b *backendTimer) Mkdir(p *sim.Proc, path string, mode uint32) error {
	d := b.led.begin(layerMicrofs, "microfs.mkdir")
	err := b.inner.Mkdir(p, path, mode)
	b.led.end(d, regionNone, false, 0)
	return err
}

func (b *backendTimer) Open(p *sim.Proc, path string, flags vfs.OpenFlags, mode uint32) (vfs.File, error) {
	d := b.led.begin(layerMicrofs, "microfs.open")
	f, err := b.inner.Open(p, path, flags, mode)
	b.led.end(d, regionNone, false, 0)
	if err != nil {
		return nil, err
	}
	return &fileTimer{inner: f, led: b.led}, nil
}

func (b *backendTimer) Unlink(p *sim.Proc, path string) error {
	d := b.led.begin(layerMicrofs, "microfs.unlink")
	err := b.inner.Unlink(p, path)
	b.led.end(d, regionNone, false, 0)
	return err
}

func (b *backendTimer) Rename(p *sim.Proc, oldPath, newPath string) error {
	d := b.led.begin(layerMicrofs, "microfs.rename")
	err := b.inner.Rename(p, oldPath, newPath)
	b.led.end(d, regionNone, false, 0)
	return err
}

func (b *backendTimer) ReadDir(p *sim.Proc, path string) ([]vfs.FileInfo, error) {
	d := b.led.begin(layerMicrofs, "microfs.readdir")
	out, err := b.inner.ReadDir(p, path)
	b.led.end(d, regionNone, false, 0)
	return out, err
}

func (b *backendTimer) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	d := b.led.begin(layerMicrofs, "microfs.stat")
	fi, err := b.inner.Stat(p, path)
	b.led.end(d, regionNone, false, 0)
	return fi, err
}

// fileTimer times the vfs.File microfs returns.
type fileTimer struct {
	inner vfs.File
	led   *ledger
}

func (f *fileTimer) Write(p *sim.Proc, data []byte) (int, error) {
	d := f.led.begin(layerMicrofs, "microfs.write")
	n, err := f.inner.Write(p, data)
	f.led.end(d, regionNone, false, 0)
	return n, err
}

func (f *fileTimer) WriteN(p *sim.Proc, n int64) (int64, error) {
	d := f.led.begin(layerMicrofs, "microfs.write")
	m, err := f.inner.WriteN(p, n)
	f.led.end(d, regionNone, false, 0)
	return m, err
}

func (f *fileTimer) Read(p *sim.Proc, buf []byte) (int, error) {
	d := f.led.begin(layerMicrofs, "microfs.read")
	n, err := f.inner.Read(p, buf)
	f.led.end(d, regionNone, false, 0)
	return n, err
}

func (f *fileTimer) ReadN(p *sim.Proc, n int64) (int64, error) {
	d := f.led.begin(layerMicrofs, "microfs.read")
	m, err := f.inner.ReadN(p, n)
	f.led.end(d, regionNone, false, 0)
	return m, err
}

func (f *fileTimer) SeekTo(offset int64) error { return f.inner.SeekTo(offset) }

func (f *fileTimer) Fsync(p *sim.Proc) error {
	d := f.led.begin(layerMicrofs, "microfs.fsync")
	err := f.inner.Fsync(p)
	f.led.end(d, regionNone, false, 0)
	return err
}

func (f *fileTimer) Close(p *sim.Proc) error {
	d := f.led.begin(layerMicrofs, "microfs.close")
	err := f.inner.Close(p)
	f.led.end(d, regionNone, false, 0)
	return err
}

// planeTimer times the plane.Plane microfs is given.
type planeTimer struct {
	inner plane.Plane
	led   *ledger
}

// planeTimerV is a planeTimer over a plane.VectorWriter; it forwards
// WriteV so callers that type-assert keep the gather path.
type planeTimerV struct {
	planeTimer
	vw plane.VectorWriter
}

// wrapPlane returns the timed plane, forwarding plane.VectorWriter
// exactly when pl implements it.
func wrapPlane(pl plane.Plane, led *ledger) plane.Plane {
	t := planeTimer{inner: pl, led: led}
	if vw, ok := pl.(plane.VectorWriter); ok {
		return &planeTimerV{planeTimer: t, vw: vw}
	}
	return &t
}

func (t *planeTimer) Size() int64 { return t.inner.Size() }

func (t *planeTimer) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	d := t.led.begin(layerPlane, "plane.write")
	err := t.inner.Write(p, off, length, data, cmdUnit)
	reg := t.led.classify(off)
	if reg == regionData && data != nil {
		t.led.lastData = off
	}
	t.led.end(d, reg, true, length)
	return err
}

func (t *planeTimer) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	d := t.led.begin(layerPlane, "plane.read")
	out, err := t.inner.Read(p, off, length, cmdUnit)
	t.led.end(d, t.led.classify(off), false, length)
	return out, err
}

func (t *planeTimer) Flush(p *sim.Proc) error {
	d := t.led.begin(layerPlane, "plane.flush")
	err := t.inner.Flush(p)
	t.led.end(d, regionNone, false, 0)
	return err
}

func (t *planeTimerV) WriteV(p *sim.Proc, off int64, bufs [][]byte) error {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	d := t.led.begin(layerPlane, "plane.writev")
	err := t.vw.WriteV(p, off, bufs)
	t.led.end(d, t.led.classify(off), true, n)
	return err
}

// queueTimer times the nvmeof.Queue a TCPPlane is given.
type queueTimer struct {
	inner nvmeof.Queue
	led   *ledger
}

// queueTimerV is a queueTimer over an nvmeof.VectorQueue; it forwards
// WriteAtV so TCPPlane.WriteV keeps its zero-copy path.
type queueTimerV struct {
	queueTimer
	vq nvmeof.VectorQueue
}

// wrapQueue returns the timed queue, forwarding nvmeof.VectorQueue
// exactly when q implements it.
func wrapQueue(q nvmeof.Queue, led *ledger) nvmeof.Queue {
	t := queueTimer{inner: q, led: led}
	if vq, ok := q.(nvmeof.VectorQueue); ok {
		return &queueTimerV{queueTimer: t, vq: vq}
	}
	return &t
}

func (t *queueTimer) NamespaceSize() int64 { return t.inner.NamespaceSize() }

func (t *queueTimer) WriteAt(off int64, data []byte) error {
	s := t.led.now()
	err := t.inner.WriteAt(off, data)
	t.led.leaf("queue.write", s, cmdKey{'w', int64(len(data))}, int64(len(data)))
	return err
}

func (t *queueTimer) ReadAt(off, length int64) ([]byte, error) {
	s := t.led.now()
	out, err := t.inner.ReadAt(off, length)
	t.led.leaf("queue.read", s, cmdKey{'r', length}, 0)
	return out, err
}

func (t *queueTimer) Flush() error {
	s := t.led.now()
	err := t.inner.Flush()
	t.led.leaf("queue.flush", s, cmdKey{'f', 0}, 0)
	return err
}

func (t *queueTimer) Identify() (int64, error) {
	s := t.led.now()
	n, err := t.inner.Identify()
	t.led.leaf("queue.identify", s, cmdKey{'i', 0}, 0)
	return n, err
}

func (t *queueTimer) Snapshot() []telemetry.HostQPSnapshot { return t.inner.Snapshot() }
func (t *queueTimer) Telemetry() *telemetry.Registry       { return t.inner.Telemetry() }
func (t *queueTimer) Close() error                         { return t.inner.Close() }

func (t *queueTimerV) WriteAtV(off int64, bufs [][]byte) error {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	s := t.led.now()
	err := t.vq.WriteAtV(off, bufs)
	t.led.leaf("queue.writev", s, cmdKey{'w', n}, n)
	return err
}
