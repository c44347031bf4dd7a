package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// modelTimes is the modelled per-command wire and service time of one
// command shape.
type modelTimes struct{ wire, service time.Duration }

// serviceTimer records the virtual time the SSD side of a RemotePlane
// spends on each call: the model's service phase.
type serviceTimer struct {
	plane.Plane
	last time.Duration
}

func (s *serviceTimer) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	t := p.Now()
	err := s.Plane.Write(p, off, length, data, cmdUnit)
	s.last = p.Now() - t
	return err
}

func (s *serviceTimer) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	t := p.Now()
	out, err := s.Plane.Read(p, off, length, cmdUnit)
	s.last = p.Now() - t
	return out, err
}

func (s *serviceTimer) Flush(p *sim.Proc) error {
	t := p.Now()
	err := s.Plane.Flush(p)
	s.last = p.Now() - t
	return err
}

// replayModel sends each measured command shape once through a
// simulated nvmeof.RemotePlane built from model.Default(), on an idle
// device, and returns the modelled wire and service time per shape.
func replayModel(cmds map[cmdKey]int64) (map[cmdKey]modelTimes, error) {
	params := model.Default()
	cluster, err := topology.New(topology.PaperTestbed())
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	fab := fabric.New(env, cluster, params.Net)
	dev := nvme.New(env, "model-ssd", params.SSD, false)
	const size = 1 << 30
	ns, err := dev.CreateNamespace(size)
	if err != nil {
		return nil, err
	}
	acct := &vfs.Account{}
	local, err := spdk.NewPlane(ns, 0, size, params.Host, acct)
	if err != nil {
		return nil, err
	}
	svc := &serviceTimer{Plane: local}
	rp := nvmeof.NewRemotePlane(svc, fab, cluster.ComputeNodes()[0], cluster.StorageNodes()[0], acct)
	keys := make([]cmdKey, 0, len(cmds))
	for k := range cmds {
		if k.op != 'i' {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return keys[i].bytes < keys[j].bytes
	})
	out := make(map[cmdKey]modelTimes, len(keys))
	var runErr error
	env.Go("replay", func(p *sim.Proc) {
		for _, k := range keys {
			// Let the device drain so every command is modelled alone,
			// as the measured service phase of an unqueued command is.
			p.Sleep(10 * time.Millisecond)
			t := p.Now()
			var err error
			switch k.op {
			case 'w':
				err = rp.Write(p, 0, k.bytes, nil, k.bytes)
			case 'r':
				_, err = rp.Read(p, 0, k.bytes, k.bytes)
			default:
				err = rp.Flush(p)
			}
			if err != nil {
				runErr = fmt.Errorf("model %c %d: %w", k.op, k.bytes, err)
				return
			}
			total := p.Now() - t
			out[k] = modelTimes{wire: total - svc.last, service: svc.last}
		}
	})
	if _, err := env.Run(); err != nil {
		return nil, err
	}
	return out, runErr
}

// weightedMedian is the median of per-shape values weighted by counts.
func weightedMedian(cmds map[cmdKey]int64, val func(cmdKey) (float64, bool)) float64 {
	type wv struct {
		v float64
		n int64
	}
	var xs []wv
	var total int64
	for k, n := range cmds {
		if v, ok := val(k); ok {
			xs = append(xs, wv{v, n})
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	var cum int64
	for _, x := range xs {
		cum += x.n
		if 2*cum >= total {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// timerFloor is the median time.Sleep(10µs) actually takes: the floor
// under any sub-millisecond modelled device delay on this host.
func timerFloor() time.Duration {
	const n = 50
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		time.Sleep(10 * time.Microsecond)
		xs[i] = float64(time.Since(t))
	}
	return time.Duration(quantile(xs, 0.5))
}

// repoRoot finds the module root this benchmark measures: the working
// directory when run from the repository root, or its parent when run
// from the benchmark's own directory (go test).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.Contains(string(b), "module github.com/nvme-cr/nvmecr\n") {
			return dir
		}
	}
	return "."
}

// sourceDigest hashes the repository's Go sources and go.mod files, so
// runs from checkouts without version control still name their code.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runMeta is recorded with every result so runs on different hosts or
// commits can be compared.
func runMeta(w workload, seed uint64, seconds int, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          traced,
		"commit":         commit,
		"source_sha256":  sourceDigest(repoRoot()),
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"sleep10us_p50":  timerFloor().String(),
		"ranks":          ranks,
		"keep":           keep,
		"epochs_per_cyc": w.epochs,
		"files_per_rank": w.files,
		"file_bytes":     []int64{w.minFile, w.maxFile},
		"app_io_bytes":   w.appIO,
		"mirror":         w.mirror,
		"targets":        w.targets(),
		"queue_pairs":    w.queuePairs(),
		"log_bytes":      w.logBytes,
		"partition":      w.partitionBytes(),
	}
}
