package nvmeof

import (
	"encoding/binary"
	"net"
	"time"

	"github.com/nvme-cr/nvmecr/internal/faults"
)

// FaultConn wraps a net.Conn with fault injection driven by a
// faults.Plan, for exercising the real TCP plane's failure handling —
// HostPool deadlines, idempotent retry, reconnect — against connection
// resets, truncated or duplicated frames, and blackholed capsules.
//
// Write-side faults act on frames, and a frame is one capsule: a Write
// carrying a batch of capsules is split at capsule boundaries and every
// capsule is evaluated on its own, so a reset or truncation delivers the
// capsules before it and never the ones behind it — the same stream a
// one-capsule-per-write initiator would have produced. Write-side
// points carry the capsule's opcode name as the op ("CONNECT", "READ",
// "WRITE", …) when the frame starts with a command header, and "write"
// otherwise. Read-side points use op "read"; the byte stream arrives in
// arbitrary chunks, so read rules count syscalls, not capsules. Points
// carry rank -1 and the plan's wall-clock Elapsed time.
//
// Injected kinds:
//
//   - KindConnReset: the frame is sent, then the connection closes —
//     the command reaches the target but its completion never returns.
//   - KindTruncate: only the first Arg bytes are sent, then the
//     connection closes (a capsule cut mid-flight).
//   - KindDuplicate: the frame is sent twice (the peer sees the same
//     capsule, same CID, twice).
//   - KindBlackhole: the frame is silently discarded; the command can
//     only end in its deadline.
//   - KindDelay: a real Arg-nanosecond sleep before the operation.
//
// A FaultConn is as concurrency-safe as the underlying net.Conn: one
// writer and one reader goroutine, the initiator's usage.
type FaultConn struct {
	net.Conn
	plan *faults.Plan
}

// NewFaultConn wraps conn with injections from plan.
func NewFaultConn(conn net.Conn, plan *faults.Plan) *FaultConn {
	return &FaultConn{Conn: conn, plan: plan}
}

// FaultDialer returns a dial function (for HostConfig.Dial or
// PoolConfig.Dial) that wraps every new connection in a FaultConn.
// Reconnected queue pairs are wrapped too, so a plan can schedule
// faults across an outage and its repair.
func FaultDialer(plan *faults.Plan) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return NewFaultConn(conn, plan), nil
	}
}

// frameOp names a write-side frame for rule scoping: the capsule's
// opcode when the frame starts with a command header, "write" otherwise.
func frameOp(b []byte) string {
	if len(b) >= cmdHdrLen && binary.LittleEndian.Uint32(b) == cmdMagic {
		return Opcode(b[4]).String()
	}
	return "write"
}

// capsuleLen is the length of the capsule b starts with, or len(b) when
// b does not start with a whole command capsule.
func capsuleLen(b []byte) int {
	if len(b) < cmdHdrLen || binary.LittleEndian.Uint32(b) != cmdMagic {
		return len(b)
	}
	n := cmdHdrLen + int(binary.LittleEndian.Uint32(b[24:]))
	if b[5]&cmdFlagTraced != 0 {
		n += traceExtLen
	}
	if n > len(b) {
		return len(b)
	}
	return n
}

func (c *FaultConn) Write(b []byte) (int, error) {
	written := 0
	for written < len(b) {
		frame := b[written:]
		frame = frame[:capsuleLen(frame)]
		n, err := c.writeFrame(frame)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// writeFrame writes one frame, applying the plan's write-side fault for
// it. A blackholed frame reports itself written.
func (c *FaultConn) writeFrame(b []byte) (int, error) {
	inj, ok := c.plan.Eval(faults.Point{
		Layer: faults.LayerTCP, Op: frameOp(b), Rank: -1, Now: c.plan.Elapsed(),
	})
	if ok {
		switch inj.Kind {
		case faults.KindDelay:
			time.Sleep(time.Duration(inj.Arg))
		case faults.KindConnReset:
			n, err := c.Conn.Write(b)
			c.Conn.Close()
			if err != nil {
				return n, err
			}
			return n, &faults.Error{Inj: inj}
		case faults.KindTruncate:
			keep := inj.Arg
			if keep < 0 || keep > int64(len(b)) {
				keep = int64(len(b)) / 2
			}
			n, err := c.Conn.Write(b[:keep])
			c.Conn.Close()
			if err != nil {
				return n, err
			}
			return n, &faults.Error{Inj: inj}
		case faults.KindDuplicate:
			if _, err := c.Conn.Write(b); err != nil {
				return 0, err
			}
			return c.Conn.Write(b)
		case faults.KindBlackhole:
			// Swallowed: the caller believes the frame is on the wire.
			return len(b), nil
		}
	}
	return c.Conn.Write(b)
}

func (c *FaultConn) Read(b []byte) (int, error) {
	inj, ok := c.plan.Eval(faults.Point{
		Layer: faults.LayerTCP, Op: "read", Rank: -1, Now: c.plan.Elapsed(),
	})
	if ok {
		switch inj.Kind {
		case faults.KindDelay:
			time.Sleep(time.Duration(inj.Arg))
		case faults.KindConnReset:
			c.Conn.Close()
			return 0, &faults.Error{Inj: inj}
		}
	}
	return c.Conn.Read(b)
}
