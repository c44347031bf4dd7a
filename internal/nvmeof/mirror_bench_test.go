package nvmeof

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
)

// BenchmarkMirroredPlane measures large-transfer bandwidth through the
// same four loopback targets arranged as RAID-0 (replicas=1, four
// groups) and as a RAID-10 mirror (replicas=2, two groups). Writes pay
// mirroring's fundamental tax — every byte hits R members — so R=2
// lands near 0.5x RAID-0; reads split extents across live replicas and
// must stay near RAID-0 parity. bench.sh gates both ratios.
func BenchmarkMirroredPlane(b *testing.B) {
	const unit = 64 * 1024
	const opSize = 1 * model.MB
	const members = 4
	const memberSize = 16 * model.MB
	// Same device-bound regime as BenchmarkStripedPlane: a modeled
	// per-byte device program time keeps the device, not the loopback
	// fabric, the bottleneck, so replica fan-out costs what it costs on
	// real hardware.
	const deviceLatency = 20 * time.Microsecond
	const deviceBW = 400 * model.MB

	dial := func(b *testing.B) ([]plane.Plane, func()) {
		children := make([]plane.Plane, members)
		var cleanups []func()
		for i := range children {
			tgt := NewTarget()
			if err := tgt.AddNamespace(1, NewMemNamespaceWithModel(memberSize, deviceLatency, deviceBW)); err != nil {
				b.Fatal(err)
			}
			addr, err := tgt.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			pool, err := DialPool(addr, 1, PoolConfig{QueuePairs: 2})
			if err != nil {
				b.Fatal(err)
			}
			tp, err := NewTCPPlane(pool, 0, memberSize)
			if err != nil {
				b.Fatal(err)
			}
			children[i] = tp
			cleanups = append(cleanups, func() { pool.Close(); tgt.Close() })
		}
		return children, func() {
			for _, c := range cleanups {
				c()
			}
		}
	}

	for _, mode := range []struct {
		name     string
		replicas int
	}{
		{"raid0", 1},
		{"mirror2", 2},
	} {
		for _, op := range []string{"write", "read"} {
			b.Run(fmt.Sprintf("mode=%s/op=%s", mode.name, op), func(b *testing.B) {
				children, cleanup := dial(b)
				defer cleanup()
				sp, err := NewMirroredPlane(children, unit, mode.replicas)
				if err != nil {
					b.Fatal(err)
				}
				payload := bytes.Repeat([]byte{0xBD}, int(opSize))
				ops := sp.Size() / opSize
				if op == "read" {
					for off := int64(0); off < sp.Size(); off += opSize {
						if err := sp.Write(nil, off, opSize, payload, 0); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.SetBytes(opSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := (int64(i) % ops) * opSize
					if op == "write" {
						if err := sp.Write(nil, off, opSize, payload, 0); err != nil {
							b.Fatal(err)
						}
					} else if _, err := sp.Read(nil, off, opSize, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
		}
	}
}
