// Command ckptbench is the repository's wall-clock checkpoint/restart
// benchmark. Two rank goroutines each mount a production microfs
// through vfs.Namespace, on TCPPlane (or a mirrored StripedPlane over
// TCPPlanes), on HostPools connected over loopback TCP to in-process
// NVMe-oF targets serving in-memory namespaces. Each workload runs
// cycles of set-up, checkpoint epochs and a verified restart round for
// the given number of seconds. See README.md for the workloads and
// metrics.
//
//	ckptbench --workload ckpt-nn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as JSON; the line
// before it is the run's metadata. With --trace 1 the run is split: an
// untraced half (for the tracing overhead) and a half with timing
// wrappers at every layer boundary, which yields the per-layer ledger.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// minCycles is the fewest measured cycles a run reports on.
	minCycles = 3
	// maxSpans bounds the spans a traced run keeps and writes out.
	maxSpans = 100_000
)

// runCycles runs a warm-up cycle when warm is set, then measured cycles
// until budget has passed (and at least minCycles). It returns the
// measured cycles and the warm-up, kept only for its correctness.
func runCycles(o options, budget time.Duration, warm bool, origin time.Time, first int) (measured []cycleResult, warmup []cycleResult) {
	start := time.Now()
	i := first
	next := func() cycleResult {
		res := runCycle(o, i, origin)
		i++
		// Drop the torn-down cycle's namespaces before the next set-up,
		// so every cycle starts from the same heap.
		runtime.GC()
		return res
	}
	if warm {
		warmup = append(warmup, next())
	}
	for len(measured) < minCycles || time.Since(start) < budget {
		measured = append(measured, next())
	}
	return measured, warmup
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ckpt-nn, ckpt-small or ckpt-mirror")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ckptbench: bad arguments (workload %q: %v)\n", *name, err)
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(repoRoot(), "internal", "microfs")); err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench: run from the repository root")
		os.Exit(2)
	}
	meta := runMeta(w, *seed, *seconds, *trace == 1)
	res, spans := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if spans != nil {
		if err := writeSpans(w, meta, spans); err != nil {
			fmt.Fprintln(os.Stderr, "ckptbench: writing spans:", err)
		}
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	enc.Encode(map[string]any{"meta": meta})
	enc.Encode(res)
	out.Flush()
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and reports end-to-end metrics, or the
// per-layer ledger when traced.
func run(w workload, seed uint64, budget time.Duration, traced bool) (result, [][]span) {
	origin := time.Now()
	o := options{w: w, seed: seed}
	if !traced {
		measured, warmup := runCycles(o, budget, true, origin, 0)
		res := newResult(append(warmup, measured...))
		res.Metrics = endToEnd(measured)
		return res, nil
	}
	plain, warmup := runCycles(o, budget/2, true, origin, 0)
	lo := o
	lo.ledger, lo.poolTrace, lo.spanBudget = true, true, new(atomic.Int64)
	lo.spanBudget.Store(maxSpans)
	tracedRuns, _ := runCycles(lo, budget/2, false, origin, len(plain)+len(warmup))
	res := newResult(append(append(warmup, plain...), tracedRuns...))
	res.Metrics = perLayer(plain, tracedRuns, float64(res.Failed)/float64(res.Attempted))
	var spans [][]span
	for _, c := range tracedRuns {
		spans = append(spans, c.spans...)
	}
	return res, spans
}

func newResult(all []cycleResult) result {
	var res result
	for _, c := range all {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil {
			fmt.Fprintln(os.Stderr, "ckptbench: failure:", c.firstErr)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perCycle collects f over the cycles.
func perCycle(cs []cycleResult, f func(c *cycleResult) float64) []float64 {
	out := make([]float64, len(cs))
	for i := range cs {
		out[i] = f(&cs[i])
	}
	return out
}

func sumEpochs(c *cycleResult) time.Duration {
	var d time.Duration
	for _, e := range c.epochs {
		d += e
	}
	return d
}

// epochQuantile is the q-quantile of one cycle's epoch times, in ms.
func epochQuantile(c *cycleResult, q float64) float64 {
	xs := make([]float64, len(c.epochs))
	for i, e := range c.epochs {
		xs[i] = float64(e) / 1e6
	}
	return quantile(xs, q)
}

func ckptGBps(c *cycleResult) float64 {
	return float64(c.ckptBytes) / sumEpochs(c).Seconds() / 1e9
}

// endToEnd derives the user-visible metrics from the measured cycles.
// Per-cycle rates are reported as their median over cycles.
func endToEnd(cs []cycleResult) map[string]metric {
	var targetIn, userBytes float64
	for _, c := range cs {
		targetIn += float64(c.ckptTargetBytesIn)
		userBytes += float64(c.ckptBytes)
	}
	return map[string]metric{
		"setup_s":   {median(perCycle(cs, func(c *cycleResult) float64 { return c.setup.Seconds() })), "s"},
		"ckpt_gbps": {median(perCycle(cs, ckptGBps)), "GB/s"},
		// Host interference comes in bursts that inflate a few cycles'
		// epochs; the median over cycles keeps them from setting the tail.
		"ckpt_p50_ms": {median(perCycle(cs, func(c *cycleResult) float64 { return epochQuantile(c, 0.5) })), "ms"},
		"ckpt_p90_ms": {median(perCycle(cs, func(c *cycleResult) float64 { return epochQuantile(c, 0.9) })), "ms"},
		"files_per_s": {median(perCycle(cs, func(c *cycleResult) float64 {
			return float64(c.files) / sumEpochs(c).Seconds()
		})), "1/s"},
		"restart_gbps": {median(perCycle(cs, func(c *cycleResult) float64 {
			return float64(c.restartBytes) / c.restartWall.Seconds() / 1e9
		})), "GB/s"},
		// The ranks recover at once over shared queue pairs, so one
		// waits for the other: the per-cycle mean is unimodal where the
		// pooled per-rank times are not.
		"recover_p50_ms": {median(perCycle(cs, func(c *cycleResult) float64 {
			var sum time.Duration
			for _, r := range c.recover {
				sum += r
			}
			return float64(sum) / float64(len(c.recover)) / 1e6
		})), "ms"},
		"write_amp": {targetIn / userBytes, "ratio"},
		"cpu_s_per_gb": {median(perCycle(cs, func(c *cycleResult) float64 {
			return c.cpu.Seconds() / (float64(c.ckptBytes+c.restartBytes) / 1e9)
		})), "s/GB"},
		"heap_peak_mb": {median(perCycle(cs, func(c *cycleResult) float64 {
			return float64(c.heapPeak) / float64(mib)
		})), "MB"},
	}
}

// perLayer derives the ledger from the traced cycles. Counts, bytes and
// times are per cycle; latencies are medians or tails of every call.
func perLayer(plain, traced []cycleResult, failRatio float64) map[string]metric {
	st := newLedgerStats()
	var snapshots, userBytes, movedBytes int64
	var retries, errs, tCmds, tIn, tOut, gcs, allocs, flushes uint64
	var batchCmds float64
	var rankWall, barrierWait time.Duration
	phases := map[string]*hist{}
	for i := range traced {
		c := &traced[i]
		st.merge(&c.stats)
		snapshots += c.snapshots
		userBytes += c.ckptBytes
		movedBytes += c.ckptBytes + c.restartBytes
		retries += c.retries
		errs += c.errors
		tCmds += c.targetCmds
		tIn += c.targetBytesIn
		tOut += c.targetBytesOut
		gcs += c.gcCycles
		allocs += c.allocBytes
		flushes += c.batchFlushes
		batchCmds += c.batchCmds
		rankWall += c.rankWall
		barrierWait += c.barrierWait
		for k, h := range c.phases {
			if phases[k] == nil {
				phases[k] = &hist{bounds: h.bounds, counts: make([]uint64, len(h.counts))}
			}
			phases[k].add(h.counts)
		}
	}
	n := float64(len(traced))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	p50 := func(key string) float64 { return quantile(st.lat[key], 0.5) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	batch := 1.0 // without a batcher every command is its own flush
	if flushes > 0 {
		batch = batchCmds / float64(flushes)
	}
	active := rankWall - barrierWait
	model, err := replayModel(st.cmds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench: model replay:", err)
	}
	mWire := weightedMedian(st.cmds, func(k cmdKey) (float64, bool) { m, ok := model[k]; return float64(m.wire) / 1e3, ok })
	mSvc := weightedMedian(st.cmds, func(k cmdKey) (float64, bool) { m, ok := model[k]; return float64(m.service) / 1e3, ok })
	wire := phases["nvmecr_qp_phase_wire_seconds"].quantile(0.5) * 1e6
	svc := phases["nvmecr_qp_phase_service_seconds"].quantile(0.5) * 1e6
	vfsCalls := float64(st.calls[layerVFS])
	return map[string]metric{
		"vfs.calls":                  {vfsCalls / n, "count"},
		"vfs.self_ms":                {ms(st.selfNS[layerVFS]), "ms"},
		"vfs.open_p50_us":            {p50("vfs.open"), "us"},
		"vfs.write_p50_us":           {p50("vfs.write"), "us"},
		"vfs.fsync_p50_us":           {p50("vfs.fsync"), "us"},
		"vfs.read_p50_us":            {p50("vfs.read"), "us"},
		"microfs.self_ms":            {ms(st.selfNS[layerMicrofs]), "ms"},
		"microfs.meta_p50_us":        {p50("microfs.meta"), "us"},
		"microfs.recover_ms":         {p50("microfs.recover") / 1e3, "ms"},
		"wal.dev_writes":             {float64(st.walWrites) / n, "count"},
		"wal.dev_bytes":              {float64(st.walBytes) / n, "B"},
		"wal.ms":                     {ms(st.walNS), "ms"},
		"wal.writes_per_op":          {ratio(float64(st.walWrites), vfsCalls), "ratio"},
		"snap.count":                 {float64(snapshots) / n, "count"},
		"snap.bytes":                 {float64(st.snapBytes) / n, "B"},
		"snap.ms":                    {ms(st.snapNS), "ms"},
		"snap.fg_stall_ms":           {ms(st.snapFgN), "ms"},
		"plane.calls":                {float64(st.calls[layerPlane]) / n, "count"},
		"plane.self_ms":              {ms(st.selfNS[layerPlane]), "ms"},
		"plane.queue_calls_per_call": {ratio(float64(st.calls[layerQueue]), float64(st.calls[layerPlane])), "ratio"},
		"plane.fanout_overlap":       {ratio(float64(st.planeChildNS), float64(st.planeNS)), "ratio"},
		"plane.bytes_per_user_byte":  {ratio(float64(st.queueWriteBytes), float64(userBytes)), "ratio"},
		"host.calls":                 {float64(st.calls[layerQueue]) / n, "count"},
		"host.p50_us":                {p50("host"), "us"},
		"host.p99_us":                {quantile(st.lat["host"], 0.99), "us"},
		"host.retries":               {float64(retries) / n, "count"},
		"host.errors":                {float64(errs) / n, "count"},
		"host.batch_cmds_per_flush":  {batch, "ratio"},
		"wire.p50_us":                {wire, "us"},
		"target.queue_p50_us":        {phases["nvmecr_qp_phase_queue_seconds"].quantile(0.5) * 1e6, "us"},
		"target.service_p50_us":      {svc, "us"},
		"target.cmds":                {float64(tCmds) / n, "count"},
		"target.bytes_in":            {float64(tIn) / n, "B"},
		"target.bytes_out":           {float64(tOut) / n, "B"},
		"gc.cycles":                  {float64(gcs) / n, "count"},
		"alloc_b_per_user_b":         {ratio(float64(allocs), float64(movedBytes)), "ratio"},
		"unattributed_frac":          {ratio(float64(active)-float64(st.topNS), float64(active)), "ratio"},
		"trace.overhead":             {ratio(median(perCycle(plain, ckptGBps)), median(perCycle(traced, ckptGBps))), "ratio"},
		"model.wire_ratio":           {ratio(wire, mWire), "ratio"},
		"model.service_ratio":        {ratio(svc, mSvc), "ratio"},
		"fail_ratio":                 {failRatio, "ratio"},
	}
}

// writeSpans dumps the traced run's spans as JSON lines to
// .bench_build/ckptbench/spans/<workload>.jsonl, after the metadata.
func writeSpans(w workload, meta map[string]any, spans [][]span) error {
	dir := filepath.Join(".bench_build", "ckptbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(map[string]any{"meta": meta})
	for i, rankSpans := range spans {
		for _, s := range rankSpans {
			enc.Encode(map[string]any{
				"rank": i % ranks, "id": s.ID, "parent": s.Parent, "trace": s.Trace, "layer": layerNames[s.Layer],
				"name": s.Name, "start_ns": s.Start, "end_ns": s.End,
			})
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
