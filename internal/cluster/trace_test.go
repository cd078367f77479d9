package cluster

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"dynasore/internal/telemetry"
)

func TestSplitTraceSuffixRoundTrip(t *testing.T) {
	tc := telemetry.TraceContext{TraceID: 0xA1B2C3D4E5F60718, SpanID: 0x1122334455667788, Flags: telemetry.FlagSampled}
	body := telemetry.AppendTraceContext([]byte("request-body"), tc)
	inner, got, err := splitTraceSuffix(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(inner) != "request-body" || got != tc {
		t.Errorf("splitTraceSuffix = %q, %+v", inner, got)
	}
	if _, _, err := splitTraceSuffix([]byte("short")); err == nil {
		t.Error("splitTraceSuffix(short) = nil error, want ErrBadFrame")
	}
}

func TestSyncWriteTracedCodecRoundTrip(t *testing.T) {
	tc := telemetry.TraceContext{TraceID: 7, SpanID: 9, Flags: telemetry.FlagSampled}
	payload := []byte("replicated event")
	body := encodeSyncWrite(42, 1001, 555, payload, tc)
	user, seq, at, p, got, err := decodeSyncWrite(body)
	if err != nil {
		t.Fatal(err)
	}
	if user != 42 || seq != 1001 || at != 555 || !bytes.Equal(p, payload) || got != tc {
		t.Errorf("decodeSyncWrite = %d, %d, %d, %q, %+v", user, seq, at, p, got)
	}
	if _, _, _, _, _, err := decodeSyncWrite(body[:20]); err == nil {
		t.Error("truncated body decoded without error")
	}
}

// TestClientTraceReachesBroker is the tracing acceptance path: a client
// that samples every request mints a trace context, the wire carries it
// to the broker, and the broker's trace ring ends up holding a span
// with the client's trace ID and a full per-stage breakdown.
func TestClientTraceReachesBroker(t *testing.T) {
	brokerTel := telemetry.New()
	brokers, _ := testBrokerCluster(t, 1, 2, func(i int, cfg *BrokerConfig) {
		cfg.Telemetry = brokerTel
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	clientTel := telemetry.New()
	clientTel.SetSampleEvery(1)
	c, err := DialClient(ctx, brokers[0].Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.setTelemetry(clientTel)
	clientTel.SetSampleEvery(1)

	if _, err := c.Write(ctx, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, []uint32{7}); err != nil {
		t.Fatal(err)
	}

	clientIDs := make(map[string]string) // trace ID -> client op
	for _, r := range clientTel.Traces(0) {
		clientIDs[r.TraceID] = r.Op
	}
	if len(clientIDs) < 2 {
		t.Fatalf("client recorded %d traces, want >= 2", len(clientIDs))
	}

	sawRead, sawWrite := false, false
	for _, r := range brokerTel.Traces(0) {
		if _, ok := clientIDs[r.TraceID]; !ok {
			continue
		}
		switch r.Op {
		case "broker.read":
			sawRead = true
			if len(r.Stages) < 3 {
				t.Errorf("broker.read has %d stages %v, want >= 3", len(r.Stages), r.Stages)
			}
			if r.ParentSpanID == "" {
				t.Error("broker.read span has no parent; client span should be upstream")
			}
		case "broker.write":
			sawWrite = true
			if len(r.Stages) < 3 {
				t.Errorf("broker.write has %d stages %v, want >= 3", len(r.Stages), r.Stages)
			}
		}
	}
	if !sawRead || !sawWrite {
		t.Errorf("broker traces missing client-minted ops: read=%v write=%v (ring: %+v)",
			sawRead, sawWrite, brokerTel.Traces(0))
	}
}

// TestV2ClientInterop pins what a client offering the retired version 2
// gets from a live broker: an error reply at the handshake and a closed
// connection — never a half-served session — while the broker keeps
// serving clients that offer version 3.
func TestV2ClientInterop(t *testing.T) {
	brokers, _ := testBrokerCluster(t, 1, 2, nil)
	if _, err := brokers[0].Write(3, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	conn, err := net.DialTimeout("tcp", brokers[0].Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, opHello, helloBody(2)); err != nil {
		t.Fatal(err)
	}
	msgType, body, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != respError || !strings.Contains(string(body), ErrBadVersion.Error()) {
		t.Fatalf("hello reply = (%d, %q), want respError naming %v", msgType, body, ErrBadVersion)
	}
	if _, _, err := readFrame(conn); err == nil {
		t.Error("connection stayed open after a refused hello")
	}

	views, err := testClient{dialClient(t, brokers[0].Addr())}.Read([]uint32{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || len(views[0].Events) == 0 || string(views[0].Events[0]) != "payload" {
		t.Errorf("read after refused hello returned %+v", views)
	}
}

// TestV3RequiresTraceSuffix pins the version-3 read layout: a read body
// without the mandatory trace suffix is a protocol error, not a silently
// misparsed request.
func TestV3RequiresTraceSuffix(t *testing.T) {
	brokers, _ := testBrokerCluster(t, 1, 2, nil)
	conn, err := net.DialTimeout("tcp", brokers[0].Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := clientHello(conn); err != nil {
		t.Fatal(err)
	}
	if err := writeMuxFrame(conn, opRead, 1, nil); err != nil {
		t.Fatal(err)
	}
	respType, _, _, err := readMuxFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if respType != respError {
		t.Errorf("suffix-free v3 read answered %d, want respError", respType)
	}
}
