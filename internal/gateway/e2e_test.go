package gateway_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynasore/internal/gateway"
	"dynasore/internal/gwconfig"
	"dynasore/internal/scenario"
	"dynasore/pkg/dynasore"
)

// startEdge boots a live multi-broker cluster (the scenario rig), fronts
// it with a gateway over a direct-read cluster client, and serves it from
// an httptest server — the whole deployment in-process.
func startEdge(t *testing.T) (*scenario.Rig, *httptest.Server, *gateway.Client) {
	t.Helper()
	rig, err := scenario.NewRig(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rig.Close() })

	cc, err := dynasore.DialCluster(context.Background(), rig.BrokerAddrs(), dynasore.WithDirectReads(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })

	cfg := gwconfig.Default()
	cfg.Brokers = rig.BrokerAddrs()
	cfg.Tokens = []string{"e2e-token"}
	cfg.RateRPS = 100000 // the test drives load; only auth should reject
	cfg.RateBurst = 100000
	gw, err := gateway.New(cfg, cc, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return rig, srv, gateway.NewClient(srv.URL, "e2e-token")
}

func TestGatewayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a multi-broker cluster")
	}
	_, srv, gc := startEdge(t)
	ctx := context.Background()

	// Write through the edge, read back through the edge.
	for i := 0; i < 5; i++ {
		seq, err := gc.Write(ctx, 42, []byte(fmt.Sprintf("event-%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if seq == 0 {
			t.Fatalf("write %d: seq 0", i)
		}
	}
	views, err := gc.Read(ctx, []uint32{42})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || len(views[0].Events) != 5 {
		t.Fatalf("read back %d views / %d events, want 1 / 5", len(views), len(views[0].Events))
	}
	if got := string(views[0].Events[0]); got != "event-0" {
		t.Errorf("events out of order: first = %q", got)
	}

	// Read-one of a never-written user is a 404 at the HTTP surface.
	resp, err := srv.Client().Get(srv.URL + "/v1/feed/999999")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated read-one = %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/feed/999999", nil)
	req.Header.Set("Authorization", "Bearer e2e-token")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("read-one of never-written user = %d, want 404", resp.StatusCode)
	}

	// The admin surface works through the edge and maps errors to status
	// codes by sentinel identity.
	m, err := gc.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Servers) != 3 || m.Epoch == 0 {
		t.Fatalf("membership = %d servers, epoch %d", len(m.Servers), m.Epoch)
	}
	if _, err := gc.DrainServer(ctx, "127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("drain of unknown server = %v, want a 404", err)
	}
	m2, err := gc.DrainServer(ctx, m.Servers[0].Addr)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m2.Epoch <= m.Epoch {
		t.Errorf("drain did not advance the epoch: %d -> %d", m.Epoch, m2.Epoch)
	}
	if m2.Servers[0].State != dynasore.ServerDraining {
		t.Errorf("drained server state = %v, want draining", m2.Servers[0].State)
	}

	st, err := gc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes < 5 || st.Reads < 1 {
		t.Errorf("stats through the edge = %d writes / %d reads", st.Writes, st.Reads)
	}

	// The scrape shows per-route histograms, the membership epoch, and the
	// store reachable — without credentials.
	body := scrape(t, srv)
	for _, want := range []string{
		`dsgate_http_requests_total{route="/v1/feed/{user}",method="POST",code="200"} 5`,
		`dsgate_http_request_duration_seconds_bucket{route="/v1/feed",le="+Inf"} 1`,
		"dsgate_store_up 1",
		// Stats round-robins across brokers, so the scrape's epoch may lag
		// m2.Epoch by a propagation beat; presence is what matters here.
		"dynasore_membership_epoch ",
		"dynasore_writes_total",
		"dynasore_lease_grants_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Probes: alive, and ready with the cluster up.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var probe map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d (%v)", path, resp.StatusCode, probe)
		}
	}
}

// scrape fetches one /metrics page.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, %v", resp.StatusCode, err)
	}
	return string(body)
}

// A scrape renders every broker counter once per broker under its one
// dynasore_<name>_total name, labelled with the broker's address, and
// costs each broker exactly one stats round trip.
func TestGatewayScrapeAttributesCountersPerBroker(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a multi-broker cluster")
	}
	rig, srv, gc := startEdge(t)
	if _, err := gc.Write(context.Background(), 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	statsCalls := func() []int64 {
		out := make([]int64, rig.NumBrokers())
		for i := range out {
			h := rig.BrokerTelemetry(i).Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "stats")
			out[i] = h.Snapshot().Count
		}
		return out
	}
	before := statsCalls()
	body := scrape(t, srv)
	after := statsCalls()
	for i, addr := range rig.BrokerAddrs() {
		if want := fmt.Sprintf("dynasore_writes_total{broker=%q} ", addr); !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
		if d := after[i] - before[i]; d != 1 {
			t.Errorf("broker %d answered %d stats calls for one scrape, want 1", i, d)
		}
	}
	for _, gone := range []string{"dynasore_broker_ops_total", "dynasore_direct_reads_total", "dynasore_direct_stale_total"} {
		if strings.Contains(body, gone) {
			t.Errorf("scrape still renders %s", gone)
		}
	}
	if n := strings.Count(body, "# TYPE dynasore_writes_total counter\n"); n != 1 {
		t.Errorf("dynasore_writes_total declared %d times, want 1", n)
	}
}

// A gateway whose cluster dies flips /readyz to 503 and keeps /metrics
// serving with dsgate_store_up 0 — the edge degrades, it does not hang.
func TestGatewayUnreadyWhenClusterDies(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a multi-broker cluster")
	}
	rig, err := scenario.NewRig(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := dynasore.DialCluster(context.Background(), rig.BrokerAddrs())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()

	cfg := gwconfig.Default()
	cfg.Brokers = rig.BrokerAddrs()
	cfg.Middlewares = []string{"requestid", "recover"}
	gw, err := gateway.New(cfg, cc, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	if resp, err := srv.Client().Get(srv.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with live cluster: %v %v", err, resp)
	} else {
		_ = resp.Body.Close()
	}

	if err := rig.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with dead cluster = %d, want 503", resp.StatusCode)
	}

	if !strings.Contains(scrape(t, srv), "dsgate_store_up 0") {
		t.Error("scrape with dead cluster missing dsgate_store_up 0")
	}
}
