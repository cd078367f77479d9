package gateway

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dynasore/internal/promtext"
	"dynasore/internal/telemetry"
)

// routeKey identifies one labelled requests_total series.
type routeKey struct {
	route  string
	method string
	code   int
}

// metricSet is the gateway's own telemetry: per-route latency histograms,
// per-route/method/code request counters, the middleware counters, and
// the in-flight gauge. Everything but the gauge is an instrument of a
// private telemetry Node (the gateway is one process of many on an edge
// box; its route series must not leak into a co-resident node's
// /metrics), which renders them through promtext so the exposition
// format cannot drift from the ops listeners'. Instruments are resolved
// once — route histograms at mux build time, request counters on a
// series' first request — so the request path never takes the registry
// lock.
type metricSet struct {
	tel *telemetry.Node

	inFlight    atomic.Int64
	authReject  *telemetry.Counter
	rateLimited *telemetry.Counter
	panics      *telemetry.Counter

	countMu sync.Mutex
	counts  map[routeKey]*telemetry.Counter
}

func newMetricSet() *metricSet {
	tel := telemetry.New()
	return &metricSet{
		tel:         tel,
		authReject:  tel.Counter("dsgate_auth_rejected_total", "Requests rejected by the auth middleware."),
		rateLimited: tel.Counter("dsgate_rate_limited_total", "Requests rejected by the ratelimit middleware."),
		panics:      tel.Counter("dsgate_panics_recovered_total", "Handler panics converted to 500s by the recover middleware."),
		counts:      make(map[routeKey]*telemetry.Counter),
	}
}

// histFor returns (registering if needed) the latency histogram of route.
func (m *metricSet) histFor(route string) *telemetry.Histogram {
	return m.tel.Histogram("dsgate_http_request_duration_seconds", "Request latency by route.", "route", route)
}

// countRequest bumps the requests_total series for one completed request.
func (m *metricSet) countRequest(route, method string, code int) {
	k := routeKey{route: route, method: method, code: code}
	m.countMu.Lock()
	c, ok := m.counts[k]
	if !ok {
		c = m.tel.Counter("dsgate_http_requests_total", "Completed requests by route, method, and status code.",
			"route", route, "method", method, "code", strconv.Itoa(code))
		m.counts[k] = c
	}
	m.countMu.Unlock()
	c.Inc()
}

// writeMetrics renders the gateway-side series in Prometheus text
// exposition format (stable ordering, so scrapes diff cleanly).
func (m *metricSet) writeMetrics(b *strings.Builder) {
	promtext.WriteHeader(b, "dsgate_http_in_flight_requests", "gauge", "Requests currently being handled.")
	promtext.WriteInt(b, "dsgate_http_in_flight_requests", "", m.inFlight.Load())
	m.tel.WriteMetrics(b)
}
