package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestListenDialRoundTrip(t *testing.T) {
	nw := NewNetwork()
	l, err := nw.Listen("server", 2811)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf))
		done <- err
	}()

	c, err := nw.Dial("client", "server:2811")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("got %q, want HELLO", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialErrors(t *testing.T) {
	nw := NewNetwork()
	nw.Host("server") // exists but not listening
	if _, err := nw.Dial("client", "server:99"); err == nil {
		t.Fatal("dial to non-listening port should fail")
	}
	if _, err := nw.Dial("client", "ghost:99"); err == nil {
		t.Fatal("dial to unknown host should fail")
	}
	if _, err := nw.Dial("client", "bogus-address"); err == nil {
		t.Fatal("dial to malformed address should fail")
	}
}

func TestListenPortReuse(t *testing.T) {
	nw := NewNetwork()
	l, err := nw.Listen("h", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("h", 100); err == nil {
		t.Fatal("double listen on same port should fail")
	}
	l.Close()
	l2, err := nw.Listen("h", 100)
	if err != nil {
		t.Fatalf("listen after close should succeed: %v", err)
	}
	l2.Close()
}

func TestAutoAssignedPortsDistinct(t *testing.T) {
	nw := NewNetwork()
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		l, err := nw.Listen("h", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		a := l.Addr().String()
		if seen[a] {
			t.Fatalf("duplicate auto port %s", a)
		}
		seen[a] = true
	}
}

func TestHalfClose(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		io.Copy(c, c) // echo until EOF
		c.(*Conn).CloseWrite()
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 10000)
	go func() {
		c.Write(payload)
		c.(*Conn).CloseWrite()
	}()
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes want %d", len(got), len(payload))
	}
}

func TestAbortFailsPeerReads(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	c.(*Conn).Abort()
	buf := make([]byte, 1)
	if _, err := srv.Read(buf); err == nil || err == io.EOF {
		t.Fatalf("read after abort: want hard error, got %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		time.Sleep(time.Second)
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

// TestPooledTimerNeverFiresEarly races deadline waits against the signals
// they guard, so wait timers fire just as their waits end. A fire that
// reaches a timer's channel after the wait returned must not carry over to
// the next lease of that timer: there it would end, say, a handshake read
// with a 30-second deadline at once with a deadline error.
func TestPooledTimerNeverFiresEarly(t *testing.T) {
	var stale atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready := make(chan struct{}, 1)
			for i := 0; i < 2500; i++ {
				go func() {
					time.Sleep(20 * time.Microsecond)
					signal(ready)
				}()
				if waitSignal(ready, time.Now().Add(20*time.Microsecond)) != nil {
					<-ready
				}
				tm := leaseTimer(time.Hour)
				time.Sleep(time.Microsecond) // let a late fire land
				select {
				case <-tm.C:
					stale.Add(1)
				default:
				}
				releaseTimer(tm, false)
			}
		}()
	}
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Fatalf("%d one-hour timer leases fired at once", n)
	}
}

func TestDialContextCancel(t *testing.T) {
	nw := NewNetwork()
	nw.SetDefaultLink(LinkParams{RTT: 5 * time.Second})
	nw.Listen("s", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := nw.Host("c").DialContext(ctx, "s:1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context deadline, got %v", err)
	}
}

// transferRate sends n bytes across a link with the given params and
// returns the measured bytes/sec.
func transferRate(t *testing.T, p LinkParams, n int, streams int) float64 {
	t.Helper()
	nw := NewNetwork()
	nw.SetLink("a", "b", p)
	l, err := nw.Listen("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	var recvMu sync.Mutex
	received := 0
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				m, _ := io.Copy(io.Discard, c)
				recvMu.Lock()
				received += int(m)
				recvMu.Unlock()
			}()
		}
	}()

	per := n / streams
	start := time.Now()
	var sendWg sync.WaitGroup
	for i := 0; i < streams; i++ {
		sendWg.Add(1)
		go func() {
			defer sendWg.Done()
			c, err := nw.Dial("a", "b:1")
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 32*1024)
			left := per
			for left > 0 {
				m := len(buf)
				if m > left {
					m = left
				}
				if _, err := c.Write(buf[:m]); err != nil {
					t.Error(err)
					return
				}
				left -= m
			}
			c.(*Conn).CloseWrite()
			// Wait for receiver to drain before closing.
			io.ReadAll(c)
			c.Close()
		}()
	}
	sendWg.Wait()
	wg.Wait()
	elapsed := time.Since(start)
	if received != per*streams {
		t.Fatalf("received %d bytes, want %d", received, per*streams)
	}
	return float64(received) / elapsed.Seconds()
}

func TestWindowLimitedThroughput(t *testing.T) {
	// 64 KiB window over 40 ms RTT caps a stream near 1.6 MB/s even though
	// the link itself is 100 MB/s.
	p := LinkParams{Bandwidth: 100e6, RTT: 40 * time.Millisecond, StreamWindow: 64 * 1024}
	rate := transferRate(t, p, 512*1024, 1)
	want := p.StreamCap()
	if rate > want*1.3 || rate < want*0.4 {
		t.Fatalf("rate %.0f not near window-limited cap %.0f", rate, want)
	}
}

func TestParallelStreamsScaleOnWindowLimitedLink(t *testing.T) {
	p := LinkParams{Bandwidth: 100e6, RTT: 40 * time.Millisecond, StreamWindow: 64 * 1024}
	r1 := transferRate(t, p, 256*1024, 1)
	r4 := transferRate(t, p, 1024*1024, 4)
	if r4 < 2.5*r1 {
		t.Fatalf("4 streams should be >2.5x faster than 1: r1=%.0f r4=%.0f", r1, r4)
	}
}

func TestSharedBandwidthCap(t *testing.T) {
	// Many streams cannot exceed the aggregate link bandwidth.
	p := LinkParams{Bandwidth: 4e6, RTT: 5 * time.Millisecond, StreamWindow: 1 << 20}
	rate := transferRate(t, p, 2*1024*1024, 8)
	if rate > p.Bandwidth*1.4 {
		t.Fatalf("aggregate rate %.0f exceeds link bandwidth %.0f", rate, p.Bandwidth)
	}
}

func TestMathisLossCap(t *testing.T) {
	p := LinkParams{Bandwidth: 1e9, RTT: 50 * time.Millisecond, Loss: 0.001, StreamWindow: 1 << 30}
	mathis := float64(p.mss()) / p.RTT.Seconds() * mathisC / math.Sqrt(p.Loss)
	if got := p.StreamCap(); math.Abs(got-mathis) > 1 {
		t.Fatalf("StreamCap=%v want mathis=%v", got, mathis)
	}
}

func TestStreamCapUnshaped(t *testing.T) {
	var p LinkParams
	if !math.IsInf(p.StreamCap(), 1) {
		t.Fatal("unshaped link should have infinite stream cap")
	}
}

func TestRTTDelaysDelivery(t *testing.T) {
	nw := NewNetwork()
	nw.SetLink("a", "b", LinkParams{RTT: 60 * time.Millisecond})
	l, _ := nw.Listen("b", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 4)
		io.ReadFull(c, buf)
		c.Write(buf) // pong
	}()
	start := time.Now()
	c, err := nw.Dial("a", "b:1") // costs 1 RTT (handshake)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// handshake RTT + request/response RTT = 120ms minimum
	if elapsed < 115*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~120ms", elapsed)
	}
}

func TestLoopbackUnshapedByDefault(t *testing.T) {
	nw := NewNetwork()
	nw.SetDefaultLink(LinkParams{RTT: time.Second})
	l, _ := nw.Listen("h", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		io.Copy(c, c)
	}()
	start := time.Now()
	c, err := nw.Dial("h", "h:1")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	io.ReadFull(c, buf)
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("loopback should not be shaped by the default WAN link")
	}
}

func TestConnAddrs(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("srv", 2811)
	defer l.Close()
	go l.Accept()
	c, err := nw.Dial("cli", "srv:2811")
	if err != nil {
		t.Fatal(err)
	}
	if c.RemoteAddr().String() != "srv:2811" {
		t.Fatalf("remote addr %s", c.RemoteAddr())
	}
	if host, _, _ := net.SplitHostPort(c.LocalAddr().String()); host != "cli" {
		t.Fatalf("local addr %s", c.LocalAddr())
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go l.Accept()
	c, _ := nw.Dial("c", "s:1")
	c.Close()
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
}
