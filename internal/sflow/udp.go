package sflow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// sFlow's native transport is UDP (conventionally port 6343): agents
// fire datagrams at a collector, losses are tolerated by design. The
// Exporter and Receiver below implement that path over the standard
// library's net package, so a generated campaign can be shipped across a
// real socket into the analysis pipeline.

// DefaultPort is the IANA-assigned sFlow collector port.
const DefaultPort = 6343

// sendRetryBackoff is how long Send waits before its single retry of a
// transiently failed transmit.
const sendRetryBackoff = time.Millisecond

// Exporter ships encoded datagrams to a collector address over UDP.
// It is not safe for concurrent use.
type Exporter struct {
	conn    net.Conn
	buf     []byte
	sent    int
	retries int
}

// NewExporter dials the collector. addr is "host:port".
func NewExporter(addr string) (*Exporter, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("sflow: dialing collector: %w", err)
	}
	return &Exporter{conn: conn}, nil
}

// transientSendError reports whether a transmit failure is worth one
// retry: the kernel ran out of socket buffers (ENOBUFS/ENOMEM, common
// under export bursts) or the write was interrupted by a signal
// (EINTR), as opposed to a dead socket or an unreachable peer.
func transientSendError(err error) bool {
	return errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.ENOMEM) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// Send encodes and transmits one datagram. A transient transmit failure
// (buffer exhaustion, interrupted syscall) is retried once after a tiny
// backoff instead of failing the whole export — agents drop, they do
// not abort.
func (e *Exporter) Send(d *Datagram) error {
	e.buf = d.AppendEncode(e.buf[:0])
	if len(e.buf) > maxDatagramLen {
		return fmt.Errorf("sflow: datagram of %d bytes exceeds transport limit", len(e.buf))
	}
	if _, err := e.conn.Write(e.buf); err != nil {
		if !transientSendError(err) {
			return fmt.Errorf("sflow: sending datagram: %w", err)
		}
		time.Sleep(sendRetryBackoff)
		e.retries++
		if _, err := e.conn.Write(e.buf); err != nil {
			return fmt.Errorf("sflow: sending datagram (after retry): %w", err)
		}
	}
	e.sent++
	return nil
}

// Count returns the number of datagrams sent.
func (e *Exporter) Count() int { return e.sent }

// Retries returns how many transmits needed the transient-error retry.
func (e *Exporter) Retries() int { return e.retries }

// Close releases the socket.
func (e *Exporter) Close() error { return e.conn.Close() }

// livenessInterval is the read-deadline granularity of the receiver's
// loop: how often a blocked ReadFrom wakes up to notice a cancelled
// context even when no traffic arrives.
const livenessInterval = 250 * time.Millisecond

// Receiver consumes sFlow datagrams from a UDP socket. Decode failures
// are counted and skipped, never fatal — a collector must survive
// malformed input from the network. Every decoded datagram additionally
// feeds a sequence tracker, so the receiver can estimate how much of the
// stream it lost (socket overruns, network drops).
type Receiver struct {
	pc        net.PacketConn
	received  atomic.Int64
	malformed atomic.Int64
	seq       SeqTracker
}

// NewReceiver binds a UDP listening socket. addr like "127.0.0.1:0"
// (port 0 picks a free port; see Addr).
func NewReceiver(addr string) (*Receiver, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("sflow: binding collector socket: %w", err)
	}
	// Collectors face bursty agents; a deep socket buffer absorbs the
	// bursts the read loop cannot keep up with instantaneously.
	if uc, ok := pc.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(4 << 20)
	}
	return &Receiver{pc: pc}, nil
}

// Addr returns the bound address (useful after binding port 0).
func (r *Receiver) Addr() net.Addr { return r.pc.LocalAddr() }

// Run reads datagrams until the socket is closed (call Close from
// another goroutine to stop) and invokes fn for each decoded datagram.
// The datagram passed to fn aliases an internal buffer and is only
// valid during the call. A non-nil error from fn stops the loop.
func (r *Receiver) Run(fn func(*Datagram) error) error {
	return r.RunContext(context.Background(), fn)
}

// RunContext is Run with cancellation: the read loop sets periodic read
// deadlines as a liveness check, so a cancelled context stops a receiver
// that is blocked waiting for traffic within livenessInterval even if
// nobody calls Close. Close during a blocked read still works and is
// reported as a clean shutdown (nil), not an opaque net error; context
// cancellation returns ctx.Err().
func (r *Receiver) RunContext(ctx context.Context, fn func(*Datagram) error) error {
	buf := make([]byte, 1<<16)
	var d Datagram
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_ = r.pc.SetReadDeadline(time.Now().Add(livenessInterval))
		n, _, err := r.pc.ReadFrom(buf)
		if err != nil {
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded):
				// Liveness tick: nothing arrived, recheck the context.
				continue
			case errors.Is(err, net.ErrClosed):
				// Close raced the read — a deliberate shutdown, not a
				// transport failure.
				return nil
			default:
				return fmt.Errorf("sflow: reading socket: %w", err)
			}
		}
		if err := Decode(buf[:n], &d); err != nil {
			r.malformed.Add(1)
			continue
		}
		r.received.Add(1)
		r.seq.Observe(&d)
		if err := fn(&d); err != nil {
			return err
		}
	}
}

// Stats returns the number of decoded and malformed datagrams so far.
// Safe to call concurrently with Run.
func (r *Receiver) Stats() (received, malformed int64) {
	return r.received.Load(), r.malformed.Load()
}

// SeqStats returns the receiver's sequence-gap accounting: what the
// datagram sequence numbers say about datagrams that never arrived.
func (r *Receiver) SeqStats() SeqStats { return r.seq.Stats() }

// EstLoss estimates the fraction of the stream the receiver missed,
// derived from per-agent sequence gaps. Safe to call concurrently with
// Run.
func (r *Receiver) EstLoss() float64 { return r.seq.EstLoss() }

// Close shuts the socket down, stopping Run.
func (r *Receiver) Close() error { return r.pc.Close() }
