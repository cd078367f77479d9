package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
)

// Client talks the paper's API (§3.1) to a broker over muxed connections:
// Read(u, L) fetches the views of the users in L; Write(u) publishes a new
// event to u's view. Every request carries an ID, so many requests are in
// flight concurrently on each connection: a writer tags the frame, a
// per-connection reader goroutine demuxes responses to the waiting callers.
// A small pool of such connections spreads load further. The same client
// serves direct reads against cache servers. All methods are safe for
// concurrent use and honor context cancellation.
type Client struct {
	addr        string
	dialTimeout time.Duration
	conns       []*muxConn
	next        atomic.Uint64
	closed      atomic.Bool
	// epoch is the highest membership epoch observed in read and write
	// response trailers — how a client notices the cluster's cache-server
	// set changed without polling.
	epoch atomic.Uint64

	// tel mints trace contexts and records client-side op latency; it is
	// the process Default() unless a test swaps in an isolated Node.
	tel       *telemetry.Node
	readHist  *telemetry.Histogram
	writeHist *telemetry.Histogram
}

// DefaultPoolSize is the connection pool size used when DialClient gets
// poolSize <= 0.
const DefaultPoolSize = 2

// DialClient connects to a node on poolSize muxed connections
// (DefaultPoolSize if <= 0). The first connection is established eagerly
// so handshake failures surface immediately; the rest are dialed lazily
// on first use, and any broken one is redialed on its next request.
func DialClient(ctx context.Context, addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	c := &Client{addr: addr, dialTimeout: 10 * time.Second}
	c.setTelemetry(telemetry.Default())
	for i := 0; i < poolSize; i++ {
		c.conns = append(c.conns, &muxConn{client: c})
	}
	if err := c.conns[0].connect(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// setTelemetry redirects the client's sampling and latency instruments
// to an isolated Node — used by tests that must not share the process
// default.
func (c *Client) setTelemetry(n *telemetry.Node) {
	c.tel = n
	c.readHist = n.Histogram("dynasore_client_op_seconds", "Client-observed end-to-end op latency.", "op", "read")
	c.writeHist = n.Histogram("dynasore_client_op_seconds", "Client-observed end-to-end op latency.", "op", "write")
}

// wireResp is one demuxed response frame.
type wireResp struct {
	msgType uint8
	body    []byte
	err     error
}

// muxConn is one multiplexed connection: a write mutex serializes outgoing
// frames, a reader goroutine routes incoming frames to pending callers by
// request ID. A broken connection fails all pending calls and is redialed
// transparently on the next request.
type muxConn struct {
	client *Client

	//dynalint:allow lockio connect holds the lock across dial+handshake so concurrent callers dial exactly once
	mu      sync.Mutex // guards conn, gen, pending
	conn    net.Conn
	gen     uint64 // bumped on every (re)dial, detects stale failures
	pending map[uint64]chan wireResp

	//dynalint:allow lockio the write mutex exists to keep concurrent frame writes from interleaving on the socket
	wmu    sync.Mutex // serializes frame writes
	nextID atomic.Uint64
}

// connect establishes the connection and performs the handshake. It is a
// no-op when the connection is already live.
func (m *muxConn) connect(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn != nil {
		return nil
	}
	if m.client.closed.Load() {
		return net.ErrClosed
	}
	d := net.Dialer{Timeout: m.client.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", m.client.addr)
	if err != nil {
		return fmt.Errorf("cluster: dial broker: %w", err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	if err := clientHello(conn); err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Time{})
	m.conn = conn
	m.gen++
	m.pending = make(map[uint64]chan wireResp)
	go m.readLoop(conn, m.gen)
	return nil
}

// readLoop demuxes response frames to their callers until the connection
// breaks.
func (m *muxConn) readLoop(conn net.Conn, gen uint64) {
	for {
		msgType, id, body, err := readMuxFrame(conn)
		if err != nil {
			m.fail(gen, err)
			return
		}
		m.mu.Lock()
		var ch chan wireResp
		if m.gen == gen {
			ch = m.pending[id]
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if ch != nil {
			ch <- wireResp{msgType: msgType, body: body}
		}
	}
}

// fail tears down generation gen of the connection, propagating err to
// every pending caller. Failures of an already-replaced generation are
// ignored.
func (m *muxConn) fail(gen uint64, err error) {
	m.mu.Lock()
	if m.gen != gen {
		m.mu.Unlock()
		return
	}
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
	}
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, ch := range pending {
		ch <- wireResp{err: err}
	}
}

// do performs one multiplexed round trip.
func (m *muxConn) do(ctx context.Context, msgType uint8, body []byte) (uint8, []byte, error) {
	if err := m.connect(ctx); err != nil {
		return 0, nil, err
	}
	id := m.nextID.Add(1)
	ch := make(chan wireResp, 1)

	m.mu.Lock()
	if m.conn == nil || m.pending == nil {
		m.mu.Unlock()
		return 0, nil, fmt.Errorf("cluster: connection lost before send")
	}
	conn, gen := m.conn, m.gen
	m.pending[id] = ch
	m.mu.Unlock()

	m.wmu.Lock()
	err := writeMuxFrame(conn, msgType, id, body)
	m.wmu.Unlock()
	if err != nil {
		m.fail(gen, err)
		m.forget(gen, id)
		return 0, nil, err
	}

	select {
	case r := <-ch:
		return r.msgType, r.body, r.err
	case <-ctx.Done():
		m.forget(gen, id)
		return 0, nil, ctx.Err()
	}
}

// forget abandons a pending request (the reader drops unmatched IDs).
func (m *muxConn) forget(gen, id uint64) {
	m.mu.Lock()
	if m.gen == gen && m.pending != nil {
		delete(m.pending, id)
	}
	m.mu.Unlock()
}

func (m *muxConn) close() {
	m.fail(m.generation(), net.ErrClosed)
}

func (m *muxConn) generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// pick returns the next pool connection, round robin.
func (c *Client) pick() *muxConn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// do performs one round trip on the next pool connection. A context that
// is already done fails the call before anything is sent; otherwise a
// fast response could race the cancellation and win.
func (c *Client) do(ctx context.Context, msgType uint8, body []byte) (uint8, []byte, error) {
	if c.closed.Load() {
		return 0, nil, net.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	return c.pick().do(ctx, msgType, body)
}

// Read fetches the views of every user in targets, in order. Requests
// that would not fit one frame return ErrTooManyTargets.
func (c *Client) Read(ctx context.Context, targets []uint32) ([]View, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	start := time.Now()
	sp := c.tel.StartSpan(c.tel.Sample(), "client.read")
	body, err := encodeReadRequest(targets)
	if err != nil {
		return nil, err
	}
	body = telemetry.AppendTraceContext(body, sp.Context())
	sp.Stage("encode")
	respType, respBody, err := c.do(ctx, opRead, body)
	if err != nil {
		return nil, err
	}
	sp.Stage("rpc")
	defer func() {
		sp.Stage("decode")
		sp.End()
		c.readHist.Observe(time.Since(start))
	}()
	switch respType {
	case respRead:
		views, epoch, err := decodeReadResponse(respBody)
		if err != nil {
			return nil, err
		}
		if len(views) != len(targets) {
			return nil, fmt.Errorf("%w: %d views for %d targets", ErrBadFrame, len(views), len(targets))
		}
		c.noteEpoch(epoch)
		return views, nil
	case respError:
		return nil, asRemoteError(respBody)
	default:
		return nil, ErrBadFrame
	}
}

// Write publishes an event produced by user and returns its sequence number.
func (c *Client) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	start := time.Now()
	sp := c.tel.StartSpan(c.tel.Sample(), "client.write")
	body := make([]byte, 0, 4+len(payload)+telemetry.TraceContextLen)
	body = binary.LittleEndian.AppendUint32(body, user)
	body = append(body, payload...)
	body = telemetry.AppendTraceContext(body, sp.Context())
	sp.Stage("encode")
	respType, respBody, err := c.do(ctx, opWrite, body)
	if err != nil {
		return 0, err
	}
	sp.Stage("rpc")
	defer func() {
		sp.End()
		c.writeHist.Observe(time.Since(start))
	}()
	switch respType {
	case respWrite:
		seq, epoch, err := decodeWriteResponse(respBody)
		if err != nil {
			return 0, err
		}
		c.noteEpoch(epoch)
		return seq, nil
	case respError:
		return 0, asRemoteError(respBody)
	default:
		return 0, ErrBadFrame
	}
}

// Lease asks the broker for a direct-read lease on user: the replica
// addresses plus the fencing tokens a DirectReader presents to cache
// servers.
func (c *Client) Lease(ctx context.Context, user uint32) (Lease, error) {
	body := binary.LittleEndian.AppendUint32(nil, user)
	respType, respBody, err := c.do(ctx, opLeaseGet, body)
	if err != nil {
		return Lease{}, err
	}
	switch respType {
	case respLease:
		l, err := decodeLeaseGrant(respBody)
		if err == nil {
			c.noteEpoch(l.Epoch)
		}
		return l, err
	case respError:
		return Lease{}, asRemoteError(respBody)
	default:
		return Lease{}, ErrBadFrame
	}
}

// directGet performs one fenced direct read against a cache server. The
// returned status is the raw response type: respView (view is valid),
// respStaleRoute (the lease is fenced — re-lease and fall back), or
// respNotHere (this replica no longer holds the view — try another).
func (c *Client) directGet(ctx context.Context, user uint32, epoch, placement uint64) (View, uint8, error) {
	respType, respBody, err := c.do(ctx, opDirectGet, encodeDirectGet(user, epoch, placement))
	if err != nil {
		return View{}, 0, err
	}
	switch respType {
	case respView:
		v, epoch, err := decodeDirectView(respBody)
		if err != nil {
			return View{}, 0, err
		}
		c.noteEpoch(epoch)
		return v, respView, nil
	case respStaleRoute:
		if e, _, err := decodeStaleRoute(respBody); err == nil {
			c.noteEpoch(e)
		}
		return View{}, respStaleRoute, nil
	case respNotHere:
		return View{}, respNotHere, nil
	case respError:
		return View{}, 0, asRemoteError(respBody)
	default:
		return View{}, 0, ErrBadFrame
	}
}

// noteEpoch records the highest membership epoch seen in a response.
func (c *Client) noteEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the highest membership epoch this client has observed in
// responses (0 before the first one).
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// Membership fetches the broker's current membership view and per-slot
// replica counts.
func (c *Client) Membership(ctx context.Context) (MembershipInfo, error) {
	return c.adminOp(ctx, opMembershipGet, nil)
}

// AddServer asks the cluster to admit a new cache server (leader-forwarded
// on the broker side) and returns the resulting membership.
func (c *Client) AddServer(ctx context.Context, info membership.ServerInfo) (MembershipInfo, error) {
	return c.adminOp(ctx, opServerAdd, membership.AppendServerInfo(nil, info))
}

// DrainServer starts decommissioning the cache server at addr.
func (c *Client) DrainServer(ctx context.Context, addr string) (MembershipInfo, error) {
	return c.adminOp(ctx, opServerDrain, []byte(addr))
}

// RemoveServer retires the cache server at addr from the cluster.
func (c *Client) RemoveServer(ctx context.Context, addr string) (MembershipInfo, error) {
	return c.adminOp(ctx, opServerRemove, []byte(addr))
}

func (c *Client) adminOp(ctx context.Context, op uint8, body []byte) (MembershipInfo, error) {
	respType, respBody, err := c.do(ctx, op, body)
	if err != nil {
		return MembershipInfo{}, err
	}
	switch respType {
	case respMembership:
		info, err := decodeMembershipInfo(respBody)
		if err == nil {
			c.noteEpoch(info.View.Epoch)
		}
		return info, err
	case respError:
		return MembershipInfo{}, asRemoteError(respBody)
	default:
		return MembershipInfo{}, ErrBadFrame
	}
}

// Stats fetches the broker's counters.
func (c *Client) Stats(ctx context.Context) (BrokerStats, error) {
	respType, body, err := c.do(ctx, opBrokerStats, nil)
	if err != nil {
		return BrokerStats{}, err
	}
	switch respType {
	case respStats:
		return decodeBrokerStats(body)
	case respError:
		return BrokerStats{}, asRemoteError(body)
	default:
		return BrokerStats{}, ErrBadFrame
	}
}

// Close closes every pooled connection; pending requests fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, m := range c.conns {
		m.close()
	}
	return nil
}
