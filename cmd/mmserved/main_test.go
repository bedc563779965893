package main

import (
	"bufio"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHTTPServerTimesOutSlowHeaders: a client that opens a connection and
// never finishes its request headers is disconnected after the header
// timeout instead of holding the connection open.
func TestHTTPServerTimesOutSlowHeaders(t *testing.T) {
	if readHeaderTimeout <= 0 {
		t.Fatalf("readHeaderTimeout = %v, want > 0", readHeaderTimeout)
	}
	const timeout = 100 * time.Millisecond
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer("", http.NotFoundHandler(), timeout)
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /status HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(20 * timeout))
	// The server either closes the connection outright or answers 408 and
	// closes; both end the read well before the deadline.
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Fatalf("slow-header client got %d, want a timeout", resp.StatusCode)
		}
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the %v header timeout", time.Since(start), timeout)
	}
}
