package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20

	// ranks is the number of rank goroutines; each owns one mount.
	ranks = 2
	// keep is how many of its most recent checkpoints a rank retains;
	// older ones are unlinked, so the footprint stays bounded.
	keep = 2
	// metaBytes covers microfs's default log (4 MiB) and snapshot
	// (64 MiB) regions at the front of every partition; the data
	// region follows. MemNamespace is sparse, so unwritten space is free.
	metaBytes = 68 * mib
	// shiftRange bounds the per-file offset into a rank's base payload,
	// which is what makes every file's content distinct.
	shiftRange = 64 * kib
	// mirrorUnit is the stripe unit of the mirrored plane.
	mirrorUnit = 128 * kib
)

// workload is one checkpoint/restart shape. A cycle is: set up the
// stack, run epochs checkpoint epochs, run one restart round, tear
// everything down.
type workload struct {
	name string
	why  string
	// mirror puts each rank's microfs on NewMirroredPlane(R=2) over two
	// targets with one 1-QP pool each; otherwise one target serves both
	// ranks through one 2-QP pool.
	mirror bool
	epochs int
	// files per rank per epoch, with sizes drawn from [minFile, maxFile].
	files            int
	minFile, maxFile int64
	// appIO is the application's write and read call size.
	appIO int64
	// mkdir puts each epoch in its own directory; restart then lists
	// and stats before it reads.
	mkdir bool
	// logBytes is microfs.Config.LogBytes (0 keeps the microfs default).
	logBytes int64
	// dataBytes is the data region of each rank's partition.
	dataBytes int64
}

var workloads = []workload{
	{
		name:      "ckpt-nn",
		why:       "CoMD N-N shape: 8 MiB per rank per epoch in 1 MiB writes, so the data path dominates",
		epochs:    8,
		files:     1,
		minFile:   8 * mib,
		maxFile:   8 * mib,
		appIO:     1 * mib,
		dataBytes: 32 * mib,
	},
	{
		name:      "ckpt-small",
		why:       "64 files of 4-64 KiB per rank per epoch in 4 KiB writes, so metadata, WAL and snapshots dominate",
		epochs:    8,
		files:     64,
		minFile:   4 * kib,
		maxFile:   64 * kib,
		appIO:     4 * kib,
		mkdir:     true,
		logBytes:  64 * kib,
		dataBytes: 24 * mib,
	},
	{
		name:      "ckpt-mirror",
		why:       "ckpt-nn on a 2-way mirrored plane over two targets, so the StripedPlane layer does the work",
		mirror:    true,
		epochs:    8,
		files:     1,
		minFile:   8 * mib,
		maxFile:   8 * mib,
		appIO:     1 * mib,
		dataBytes: 32 * mib,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// partitionBytes is the size of one rank's partition on each target.
func (w workload) partitionBytes() int64 { return metaBytes + w.dataBytes }

// targets is the number of NVMe-oF targets the workload runs.
func (w workload) targets() int {
	if w.mirror {
		return 2
	}
	return 1
}

// queuePairs is PoolConfig.QueuePairs of every pool: two TCP
// connections in total either way.
func (w workload) queuePairs() int {
	if w.mirror {
		return 1
	}
	return 2
}

// fileSpec is one checkpoint file's generated identity and content.
type fileSpec struct {
	path  string // rank-relative, e.g. "/e0003/f07"
	dir   string // rank-relative parent ("" when the epoch has none)
	size  int64
	shift int64 // offset of the content within the rank's base payload
}

// inputs are a workload's seeded inputs: one base payload per rank,
// and the per-file size and content offset derived from the seed.
type inputs struct {
	w    workload
	seed uint64
	base [ranks][]byte
}

func newInputs(w workload, seed uint64) *inputs {
	in := &inputs{w: w, seed: seed}
	for r := range in.base {
		rng := rand.New(rand.NewPCG(seed, uint64(r)+1))
		buf := make([]byte, w.maxFile+shiftRange)
		for i := 0; i+8 <= len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
		}
		in.base[r] = buf
	}
	return in
}

// mix is splitmix64's finalizer: a cheap bijective hash for deriving
// per-file parameters from (seed, rank, epoch, file).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// epochDir is the rank-relative directory of an epoch ("" when the
// workload writes its files at the mount root).
func (w workload) epochDir(epoch int) string {
	if !w.mkdir {
		return ""
	}
	return fmt.Sprintf("/e%04d", epoch)
}

// file returns the spec of rank's i-th file in epoch.
func (in *inputs) file(rank, epoch, i int) fileSpec {
	w := in.w
	h := mix(in.seed ^ mix(uint64(rank)<<48|uint64(epoch)<<16|uint64(i)))
	size := w.minFile
	if span := w.maxFile - w.minFile; span > 0 {
		size += int64(h % uint64(span+1))
	}
	dir := w.epochDir(epoch)
	name := fmt.Sprintf("/ckpt-%04d.dat", epoch)
	if w.mkdir {
		name = fmt.Sprintf("%s/f%02d", dir, i)
	}
	return fileSpec{path: name, dir: dir, size: size, shift: int64(mix(h) % uint64(shiftRange))}
}

// content is the file's expected bytes (a view of the base payload).
func (in *inputs) content(rank int, f fileSpec) []byte {
	return in.base[rank][f.shift : f.shift+f.size]
}

// digest hashes the generated inputs of the first epochs, for the
// same-seed/different-seed check.
func (in *inputs) digest(epochs int) [32]byte {
	h := sha256.New()
	for r := 0; r < ranks; r++ {
		h.Write(in.base[r])
		for e := 0; e < epochs; e++ {
			for i := 0; i < in.w.files; i++ {
				f := in.file(r, e, i)
				fmt.Fprintf(h, "%s %d %d\n", f.path, f.size, f.shift)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
