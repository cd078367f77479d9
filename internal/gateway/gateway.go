// Package gateway is the HTTP edge of a dynasore cluster: a JSON REST
// surface over the feed API (read, read-one, write) and the elastic-
// membership admin surface, behind a composable middleware chain —
// request IDs, structured logging, bearer-token auth, per-client rate
// limiting, panic recovery, and request timeouts — selected and ordered
// by configuration. It also exposes the observability surface every
// deployment needs: /metrics in Prometheus text exposition format
// (gateway-side per-route latency histograms and counters plus the
// broker's own Stats), and /healthz · /readyz probes wired to broker
// reachability.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/gwconfig"
	"dynasore/internal/promtext"
	"dynasore/internal/telemetry"
	"dynasore/pkg/dynasore"
)

// maxWriteBody bounds a POST /v1/feed/{user} payload; a feed event is a
// small blob, not an upload.
const maxWriteBody = 1 << 20

// readyzTimeout bounds the broker Stats probe behind /readyz, so a hung
// broker turns the gateway not-ready instead of hanging the kubelet.
const readyzTimeout = 2 * time.Second

// Gateway serves the HTTP edge for one dynasore Store. Construct with
// New; it implements http.Handler.
type Gateway struct {
	cfg     gwconfig.Config
	store   dynasore.Store
	admin   dynasore.Admin // nil when the store has no admin surface
	log     *slog.Logger
	metrics *metricSet
	limiter *rateLimiter
	handler http.Handler
}

// New builds a gateway over store from cfg. The middleware names in
// cfg.Middlewares are resolved against the registry (unknown names are
// an error, not a silent skip), and a chain that enforces auth without
// any configured token is rejected — a gateway must not start silently
// open or silently unusable.
func New(cfg gwconfig.Config, store dynasore.Store, log *slog.Logger) (*Gateway, error) {
	if log == nil {
		log = slog.Default()
	}
	g := &Gateway{
		cfg:     cfg,
		store:   store,
		log:     log,
		metrics: newMetricSet(),
		limiter: newRateLimiter(cfg.RateRPS, cfg.RateBurst),
	}
	if a, ok := store.(dynasore.Admin); ok {
		g.admin = a
	}
	for _, name := range cfg.Middlewares {
		if name == MWAuth && len(cfg.Tokens) == 0 {
			return nil, fmt.Errorf("gateway: middleware chain enforces auth but no tokens are configured")
		}
	}

	mux := http.NewServeMux()
	mux.Handle("GET /healthz", g.instrument("/healthz", g.handleHealthz))
	mux.Handle("GET /readyz", g.instrument("/readyz", g.handleReadyz))
	mux.Handle("GET /metrics", g.instrument("/metrics", g.handleMetrics))
	mux.Handle("GET /v1/feed", g.instrument("/v1/feed", g.handleReadMulti))
	mux.Handle("GET /v1/feed/{user}", g.instrument("/v1/feed/{user}", g.handleReadOne))
	mux.Handle("POST /v1/feed/{user}", g.instrument("/v1/feed/{user}", g.handleWrite))
	mux.Handle("GET /v1/stats", g.instrument("/v1/stats", g.handleStats))
	mux.Handle("GET /v1/servers", g.instrument("/v1/servers", g.handleServers))
	mux.Handle("POST /v1/servers", g.instrument("/v1/servers", g.handleAddServer))
	mux.Handle("POST /v1/servers/{addr}/drain", g.instrument("/v1/servers/{addr}/drain", g.handleDrainServer))
	mux.Handle("DELETE /v1/servers/{addr}", g.instrument("/v1/servers/{addr}", g.handleRemoveServer))

	h, err := g.chain(mux, cfg.Middlewares)
	if err != nil {
		return nil, err
	}
	g.handler = h
	return g, nil
}

// ServeHTTP dispatches through the middleware chain into the mux.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.handler.ServeHTTP(w, r)
}

// instrument wraps one route's handler with the per-route telemetry:
// the in-flight gauge, the latency histogram (pre-registered here, so
// the request path never takes the registry lock), and the
// route/method/code counter. A panic passes through to the recover
// middleware but is still counted, as a 500.
func (g *Gateway) instrument(route string, h http.HandlerFunc) http.Handler {
	hist := g.metrics.histFor(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.metrics.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if sw.status == 0 {
				sw.status = http.StatusInternalServerError // panic unwound past us
			}
			hist.Observe(time.Since(start))
			g.metrics.countRequest(route, r.Method, sw.status)
			g.metrics.inFlight.Add(-1)
		}()
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
	})
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// writeError answers with the JSON error envelope, carrying the request
// ID so a client can quote it back at the logs.
func (g *Gateway) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	g.writeJSON(w, r, code, errorBody{Error: err.Error(), RequestID: RequestID(r.Context())})
}

// writeJSON answers with v as JSON at the given status.
func (g *Gateway) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		g.log.Debug("write response", "err", err, "rid", RequestID(r.Context()))
	}
}

// statusOf maps a store error onto the HTTP status that tells the
// client the right story: who was wrong (4xx) and whether to retry
// (503/504 yes, 409 after re-reading state). Classification is by
// sentinel identity — the wire protocol preserves errors.Is across the
// network — never by matching error text.
func statusOf(err error) int {
	switch {
	case errors.Is(err, dynasore.ErrNoSuchUser),
		errors.Is(err, dynasore.ErrNoSuchServer):
		return http.StatusNotFound
	case errors.Is(err, dynasore.ErrDuplicateServer),
		errors.Is(err, dynasore.ErrLastActive),
		errors.Is(err, dynasore.ErrStaleEpoch):
		return http.StatusConflict
	case errors.Is(err, dynasore.ErrNotLeader):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// storeError classifies err with statusOf and writes the error
// envelope.
func (g *Gateway) storeError(w http.ResponseWriter, r *http.Request, err error) {
	code := statusOf(err)
	if code >= 500 {
		g.log.Warn("store error", "err", err, "path", r.URL.Path, "rid", RequestID(r.Context()))
	}
	g.writeError(w, r, code, err)
}

// viewJSON is one user's feed view on the wire: events are base64 (the
// store holds opaque bytes), oldest first.
type viewJSON struct {
	User    uint32   `json:"user"`
	Version uint64   `json:"version"`
	Events  [][]byte `json:"events"`
}

func toViewJSON(user uint32, v dynasore.View) viewJSON {
	out := viewJSON{User: user, Version: v.Version, Events: v.Events}
	if out.Events == nil {
		out.Events = [][]byte{} // render "events": [] — never null
	}
	return out
}

// handleHealthz is the liveness probe: the process is up and serving.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: ready only when the broker
// answers Stats within readyzTimeout.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), readyzTimeout)
	defer cancel()
	st, err := g.store.Stats(ctx)
	if err != nil {
		g.writeJSON(w, r, http.StatusServiceUnavailable,
			map[string]string{"status": "unready", "reason": err.Error()})
		return
	}
	g.writeJSON(w, r, http.StatusOK, map[string]any{"status": "ready", "epoch": st.Epoch})
}

// brokerStatser is the optional per-broker stats surface of a store
// (ClusterClient has it); when present, /metrics attributes every counter
// to the broker address it came from.
type brokerStatser interface {
	StatsPerBroker(ctx context.Context) ([]dynasore.BrokerStats, error)
}

// storeStats fetches the counters /metrics renders: one snapshot per
// broker with its address, from a single StatsPerBroker call when the
// store has one, else the store's own Stats unattributed (brokers nil).
func (g *Gateway) storeStats(ctx context.Context) (brokers []string, stats []dynasore.Stats, err error) {
	bs, ok := g.store.(brokerStatser)
	if !ok {
		st, err := g.store.Stats(ctx)
		return nil, []dynasore.Stats{st}, err
	}
	per, err := bs.StatsPerBroker(ctx)
	for _, p := range per {
		brokers = append(brokers, p.Addr)
		stats = append(stats, p.Stats)
	}
	return brokers, stats, err
}

// handleMetrics renders the full scrape: the gateway's own series, the
// process-wide telemetry histograms (client-side op latency, direct-read
// ladder counters), then the store's counters — per broker when the
// store can attribute them — and the membership epoch. A broker outage
// does not fail the scrape — it shows as dsgate_store_up 0 with the
// dynasore_* series absent.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	g.metrics.writeMetrics(&b)
	telemetry.Default().WriteMetrics(&b)

	brokers, stats, err := g.storeStats(r.Context())
	up := 0
	if err == nil {
		up = 1
	}
	promtext.WriteHeader(&b, "dsgate_store_up", "gauge", "Whether the broker answered the stats probe.")
	promtext.WriteInt(&b, "dsgate_store_up", "", int64(up))
	if err == nil {
		cluster.WriteMetrics(&b, brokers, stats)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := io.WriteString(w, b.String()); err != nil {
		g.log.Debug("write metrics", "err", err)
	}
}

// parseUser parses the {user} path element: feed users are uint32 IDs.
func parseUser(s string) (uint32, error) {
	u, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad user id %q: want a uint32", s)
	}
	return uint32(u), nil
}

// handleReadMulti is GET /v1/feed?users=1,2,3 — the paper's Read(u, L)
// over HTTP: many producers' views in one round trip, in request order.
func (g *Gateway) handleReadMulti(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("users")
	if raw == "" {
		g.writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing users query parameter"))
		return
	}
	parts := strings.Split(raw, ",")
	if len(parts) > g.cfg.ReadCap {
		g.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("%d users in one read; the cap is %d", len(parts), g.cfg.ReadCap))
		return
	}
	targets := make([]uint32, 0, len(parts))
	for _, p := range parts {
		u, err := parseUser(strings.TrimSpace(p))
		if err != nil {
			g.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		targets = append(targets, u)
	}
	views, err := g.store.Read(r.Context(), targets)
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	out := make([]viewJSON, len(views))
	for i, v := range views {
		out[i] = toViewJSON(targets[i], v)
	}
	g.writeJSON(w, r, http.StatusOK, map[string][]viewJSON{"views": out})
}

// handleReadOne is GET /v1/feed/{user}. A user with no events answers
// 404 ErrNoSuchUser — at the HTTP surface, "never written" is a miss,
// not an empty 200.
func (g *Gateway) handleReadOne(w http.ResponseWriter, r *http.Request) {
	user, err := parseUser(r.PathValue("user"))
	if err != nil {
		g.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	views, err := g.store.Read(r.Context(), []uint32{user})
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	if len(views) == 0 || (views[0].Version == 0 && len(views[0].Events) == 0) {
		g.storeError(w, r, fmt.Errorf("%w: %d", dynasore.ErrNoSuchUser, user))
		return
	}
	g.writeJSON(w, r, http.StatusOK, toViewJSON(user, views[0]))
}

// handleWrite is POST /v1/feed/{user} with the raw event payload as the
// body — the paper's Write(u). Answers the event's sequence number.
func (g *Gateway) handleWrite(w http.ResponseWriter, r *http.Request) {
	user, err := parseUser(r.PathValue("user"))
	if err != nil {
		g.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err != nil {
		g.writeError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("read body: %w", err))
		return
	}
	seq, err := g.store.Write(r.Context(), user, payload)
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	g.writeJSON(w, r, http.StatusOK, map[string]any{"user": user, "seq": seq})
}

// handleStats is GET /v1/stats: the broker's counter snapshot as JSON.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := g.store.Stats(r.Context())
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	g.writeJSON(w, r, http.StatusOK, st)
}

// serverJSON is one membership slot on the wire.
type serverJSON struct {
	Addr     string `json:"addr"`
	Zone     int    `json:"zone"`
	Rack     int    `json:"rack"`
	Capacity int    `json:"capacity"`
	State    string `json:"state"`
	Replicas int64  `json:"replicas"`
}

// membershipJSON is the admin surface's membership answer.
type membershipJSON struct {
	Epoch   uint64       `json:"epoch"`
	Servers []serverJSON `json:"servers"`
}

func toMembershipJSON(m dynasore.Membership) membershipJSON {
	out := membershipJSON{Epoch: m.Epoch, Servers: make([]serverJSON, len(m.Servers))}
	for i, s := range m.Servers {
		out.Servers[i] = serverJSON{
			Addr:     s.Addr,
			Zone:     s.Pos.Zone,
			Rack:     s.Pos.Rack,
			Capacity: s.Capacity,
			State:    s.State.String(),
			Replicas: s.Replicas,
		}
	}
	return out
}

// requireAdmin answers 501 when the backing store has no admin surface
// (reporting the condition once, here, instead of in every handler).
func (g *Gateway) requireAdmin(w http.ResponseWriter, r *http.Request) bool {
	if g.admin == nil {
		g.writeError(w, r, http.StatusNotImplemented,
			fmt.Errorf("this gateway's store has no admin surface"))
		return false
	}
	return true
}

// handleServers is GET /v1/servers: the epoch-versioned cache-server
// registry, with per-server replica counts.
func (g *Gateway) handleServers(w http.ResponseWriter, r *http.Request) {
	if !g.requireAdmin(w, r) {
		return
	}
	m, err := g.admin.Membership(r.Context())
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	g.writeJSON(w, r, http.StatusOK, toMembershipJSON(m))
}

// addServerRequest is the POST /v1/servers body.
type addServerRequest struct {
	Addr     string `json:"addr"`
	Zone     int    `json:"zone"`
	Rack     int    `json:"rack"`
	Capacity int    `json:"capacity"`
}

// handleAddServer is POST /v1/servers: admit a cache server into the
// membership. Duplicate addresses at a different position answer 409.
func (g *Gateway) handleAddServer(w http.ResponseWriter, r *http.Request) {
	if !g.requireAdmin(w, r) {
		return
	}
	var req addServerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWriteBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		g.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Addr == "" {
		g.writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing addr"))
		return
	}
	m, err := g.admin.AddServer(r.Context(), req.Addr,
		dynasore.Position{Zone: req.Zone, Rack: req.Rack}, req.Capacity)
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	g.writeJSON(w, r, http.StatusOK, toMembershipJSON(m))
}

// handleDrainServer is POST /v1/servers/{addr}/drain: start
// decommissioning — readable, no new placements, replicas migrate out.
func (g *Gateway) handleDrainServer(w http.ResponseWriter, r *http.Request) {
	if !g.requireAdmin(w, r) {
		return
	}
	m, err := g.admin.DrainServer(r.Context(), r.PathValue("addr"))
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	g.writeJSON(w, r, http.StatusOK, toMembershipJSON(m))
}

// handleRemoveServer is DELETE /v1/servers/{addr}: retire the slot.
func (g *Gateway) handleRemoveServer(w http.ResponseWriter, r *http.Request) {
	if !g.requireAdmin(w, r) {
		return
	}
	m, err := g.admin.RemoveServer(r.Context(), r.PathValue("addr"))
	if err != nil {
		g.storeError(w, r, err)
		return
	}
	g.writeJSON(w, r, http.StatusOK, toMembershipJSON(m))
}
