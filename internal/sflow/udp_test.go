package sflow

import (
	"context"
	"errors"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestUDPExportReceive(t *testing.T) {
	recv, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	type flowKey struct {
		seq  uint32
		rate uint32
	}
	var mu sync.Mutex
	got := map[flowKey]bool{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := recv.Run(func(d *Datagram) error {
			mu.Lock()
			for i := range d.Flows {
				got[flowKey{d.Flows[i].SequenceNum, d.Flows[i].SamplingRate}] = true
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()

	exp, err := NewExporter(recv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	const rounds = 200
	base := sampleDatagram()
	for i := 0; i < rounds; i++ {
		base.SequenceNum = uint32(i)
		base.Flows[0].SequenceNum = uint32(2 * i)
		base.Flows[1].SequenceNum = uint32(2*i + 1)
		if err := exp.Send(base); err != nil {
			t.Fatal(err)
		}
	}
	if exp.Count() != rounds {
		t.Fatalf("sent %d", exp.Count())
	}

	// UDP is lossy by design; wait briefly, then require near-complete
	// delivery on loopback.
	deadline := time.Now().Add(2 * time.Second)
	for {
		received, _ := recv.Stats()
		if received >= rounds*95/100 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	recv.Close()
	wg.Wait()

	received, malformed := recv.Stats()
	if malformed != 0 {
		t.Fatalf("%d malformed datagrams", malformed)
	}
	if received < rounds*95/100 {
		t.Fatalf("received only %d of %d datagrams", received, rounds)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) < int(received)*2 {
		t.Fatalf("flow samples lost in decode: %d keys for %d datagrams", len(got), received)
	}
}

func TestReceiverSurvivesGarbage(t *testing.T) {
	recv, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = recv.Run(func(*Datagram) error { return nil })
	}()

	exp, err := NewExporter(recv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	// Raw garbage straight onto the socket.
	if _, err := exp.conn.Write([]byte("definitely not sflow")); err != nil {
		t.Fatal(err)
	}
	if err := exp.Send(sampleDatagram()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		received, malformed := recv.Stats()
		if (received >= 1 && malformed >= 1) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	recv.Close()
	<-done
	received, malformed := recv.Stats()
	if received < 1 || malformed < 1 {
		t.Fatalf("received=%d malformed=%d", received, malformed)
	}
}

func TestExporterRejectsOversize(t *testing.T) {
	recv, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	exp, err := NewExporter(recv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	d := sampleDatagram()
	d.Flows[0].Raw.Header = make([]byte, maxDatagramLen+1)
	if err := exp.Send(d); err == nil {
		t.Fatal("oversize datagram must be rejected")
	}
}

// TestRunContextCancelUnblocksIdleReceiver: a receiver blocked in
// ReadFrom with no traffic must notice context cancellation via its
// read-deadline liveness checks, without anyone calling Close.
func TestRunContextCancelUnblocksIdleReceiver(t *testing.T) {
	recv, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- recv.RunContext(ctx, func(*Datagram) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond) // let it block in ReadFrom
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled receiver did not return within the liveness window")
	}
}

// TestCloseDuringBlockedReadIsCleanShutdown: Close racing a blocked
// ReadFrom must surface as a nil return, not an opaque net error.
func TestCloseDuringBlockedReadIsCleanShutdown(t *testing.T) {
	recv, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- recv.Run(func(*Datagram) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond)
	recv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after Close = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}

// TestReceiverTracksSequenceGaps: skipped datagram sequence numbers on
// the wire must show up in the receiver's loss estimate.
func TestReceiverTracksSequenceGaps(t *testing.T) {
	recv, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = recv.Run(func(*Datagram) error { return nil })
	}()

	exp, err := NewExporter(recv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	d := sampleDatagram()
	// Send 1..10 but skip 4 and 7: two datagrams "lost".
	sent := 0
	for seq := uint32(1); seq <= 10; seq++ {
		if seq == 4 || seq == 7 {
			continue
		}
		d.SequenceNum = seq
		if err := exp.Send(d); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _ := recv.Stats(); int(got) >= sent || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	recv.Close()
	<-done
	st := recv.SeqStats()
	if st.GapDatagrams != 2 {
		t.Fatalf("gap datagrams = %d, want 2 (%+v)", st.GapDatagrams, st)
	}
	if loss := recv.EstLoss(); loss < 0.1 || loss > 0.3 {
		t.Fatalf("EstLoss = %v, want ~0.2", loss)
	}
}

// flakyConn fails the first write with a transient error, then behaves.
type flakyConn struct {
	net.Conn // nil; only Write/Close are called
	fails    int
	failWith error
	wrote    int
}

func (c *flakyConn) Write(p []byte) (int, error) {
	if c.fails > 0 {
		c.fails--
		return 0, &net.OpError{Op: "write", Net: "udp", Err: c.failWith}
	}
	c.wrote++
	return len(p), nil
}

func (c *flakyConn) Close() error { return nil }

func TestExporterRetriesTransientSendErrors(t *testing.T) {
	for _, transient := range []error{syscall.ENOBUFS, syscall.EINTR} {
		conn := &flakyConn{fails: 1, failWith: transient}
		exp := &Exporter{conn: conn}
		if err := exp.Send(sampleDatagram()); err != nil {
			t.Fatalf("%v: Send = %v, want retried success", transient, err)
		}
		if exp.Retries() != 1 || exp.Count() != 1 || conn.wrote != 1 {
			t.Fatalf("%v: retries=%d sent=%d wrote=%d", transient, exp.Retries(), exp.Count(), conn.wrote)
		}
	}

	// A persistent transient error still fails after the single retry.
	exp := &Exporter{conn: &flakyConn{fails: 2, failWith: syscall.ENOBUFS}}
	if err := exp.Send(sampleDatagram()); err == nil {
		t.Fatal("persistent ENOBUFS must fail after one retry")
	}

	// Non-transient errors are not retried.
	conn := &flakyConn{fails: 1, failWith: syscall.ECONNREFUSED}
	exp = &Exporter{conn: conn}
	if err := exp.Send(sampleDatagram()); err == nil {
		t.Fatal("ECONNREFUSED must fail immediately")
	}
	if exp.Retries() != 0 {
		t.Fatalf("non-transient error was retried %d times", exp.Retries())
	}
}
