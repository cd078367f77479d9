package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/pkg/dynasore"
)

// Level is the highest switch of the emulated data-center tree a relayed
// hop crosses: nodes at one position share a rack switch, positions of
// one zone meet at its intermediate switch, and zones meet at the top
// switch (the paper's tree, §2). Every hop is counted once, at its
// highest level, so the per-level byte counts partition the total.
type Level int

// Switch levels, lowest first.
const (
	LevelRack Level = iota
	LevelInter
	LevelTop
	numLevels
)

var levelNames = [numLevels]string{"rack", "inter", "top"}

// levelOf is the highest switch level on the path between two positions.
func levelOf(a, b dynasore.Position) Level {
	switch {
	case a.Zone != b.Zone:
		return LevelTop
	case a.Rack != b.Rack:
		return LevelInter
	default:
		return LevelRack
	}
}

// Hop names the kind of link a relayed connection emulates.
type Hop int

// Link kinds. HopCS is never a relay's own kind: a front-end's direct
// reads reach a cache server through its broker's relay (the lease names
// the granting broker's addresses), and the relay tells them apart from
// the broker's traffic by the direct-get requests they carry.
const (
	HopCB Hop = iota // front-end client -> broker
	HopBS            // broker -> cache server
	HopCS            // front-end client -> cache server (direct reads)
	HopBB            // broker -> broker (peer sync and WAL replication)
	numHops
)

var hopNames = [numHops]string{"cb", "bs", "cs", "bb"}

// Wire constants the relays rely on. The relays decode a frame's length
// prefix, its type byte, and, after a handshake, its request ID; nothing
// else. Frames are uint32 length | uint8 type | body, and a connection
// whose first frame body opens with helloMagic switches both directions
// to uint32 length | uint8 type | uint64 request ID | body after that
// first exchange.
const (
	maxFrameLen  = 16<<20 + 64
	opGetView    = 1  // broker -> cache server view fetch
	opDirectGet  = 36 // client -> cache server direct read
	v1HeaderLen  = 5
	v2HeaderLen  = 13
	helloPeekLen = 9
)

var helloMagic = [4]byte{'D', 'S', 'R', 'E'}

// errBadFraming reports a byte stream the relay cannot delimit.
var errBadFraming = errors.New("relay: unparseable framing")

// Span is one request/response exchange seen by a relay. Times are
// nanoseconds since the network's epoch: Start when the request's first
// byte reached the relay, Fwd just before the relay sent its last byte on
// (after the injected delay), Back when the response's first byte came
// back, and End just after the relay delivered the response's last byte.
// End-Start is what the caller waited; Back-Fwd is the callee's share
// with the injected delay taken out.
type Span struct {
	Hop       Hop
	Level     Level
	Op        uint8
	Start     int64
	Fwd       int64
	Back      int64
	End       int64
	ReqBytes  int
	RespBytes int
}

// Network is the emulated data-center network: a set of TCP relays that
// delay traffic by the switch levels it crosses and count the bytes of
// every hop. While tracing is on, the relays also record one Span per
// request/response exchange.
type Network struct {
	delay   [numLevels]time.Duration
	epoch   time.Time
	tracing atomic.Bool

	mu       sync.Mutex
	conns    []*relayConn // every connection ever relayed
	spans    []Span
	unparsed int
	relays   []*Relay
}

// NewNetwork returns a network whose relays delay each chunk one way by
// delay[level].
func NewNetwork(delay [numLevels]time.Duration) *Network {
	return &Network{delay: delay, epoch: time.Now()}
}

func (n *Network) now() int64 { return int64(time.Since(n.epoch)) }

// SetTracing turns span recording on or off for requests parsed from now.
func (n *Network) SetTracing(on bool) { n.tracing.Store(on) }

// Spans returns a copy of the recorded spans.
func (n *Network) Spans() []Span {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Span(nil), n.spans...)
}

// Counters is a snapshot of the network's byte counts.
type Counters struct {
	HopBytes   [numHops]int64
	LevelBytes [numLevels]int64
	// Unparsed counts connections whose framing the relays could not
	// delimit; their bytes still count, their spans are lost.
	Unparsed int
}

// Total is the number of bytes over every relayed hop.
func (c Counters) Total() int64 {
	var t int64
	for _, b := range c.LevelBytes {
		t += b
	}
	return t
}

// Sub returns c - o.
func (c Counters) Sub(o Counters) Counters {
	for i := range c.HopBytes {
		c.HopBytes[i] -= o.HopBytes[i]
	}
	for i := range c.LevelBytes {
		c.LevelBytes[i] -= o.LevelBytes[i]
	}
	c.Unparsed -= o.Unparsed
	return c
}

// Snapshot sums the counts of every connection relayed so far.
func (n *Network) Snapshot() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := Counters{Unparsed: n.unparsed}
	for _, rc := range n.conns {
		b := rc.bytes.Load()
		c.HopBytes[rc.hop()] += b
		c.LevelBytes[rc.relay.level] += b
	}
	return c
}

// Listen starts a relay on host (port chosen by the kernel) forwarding to
// target; every connection through it is a hop of the given kind and
// level.
func (n *Network) Listen(host, target string, hop Hop, level Level) (*Relay, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("relay listen on %s: %w", host, err)
	}
	r := &Relay{net: n, hop: hop, level: level, ln: ln, target: target, live: make(map[*relayConn]struct{})}
	n.mu.Lock()
	n.relays = append(n.relays, r)
	n.mu.Unlock()
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

// Close stops every relay and waits for their goroutines.
func (n *Network) Close() {
	n.mu.Lock()
	relays := n.relays
	n.relays = nil
	n.mu.Unlock()
	for _, r := range relays {
		r.Close()
	}
}

// Relay forwards TCP connections from its listen address to one target.
type Relay struct {
	net    *Network
	hop    Hop
	level  Level
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu     sync.Mutex
	live   map[*relayConn]struct{}
	closed bool
}

// Addr is the relay's listen address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close stops accepting, tears down live connections, and waits.
func (r *Relay) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	live := make([]*relayConn, 0, len(r.live))
	for c := range r.live {
		live = append(live, c)
	}
	r.mu.Unlock()
	r.ln.Close()
	for _, c := range live {
		c.shut()
	}
	r.wg.Wait()
}

func (r *Relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.DialTimeout("tcp", r.target, 2*time.Second)
		if err != nil {
			in.Close()
			continue
		}
		c := &relayConn{relay: r, in: in, out: out, pending: make(map[uint64]*Span)}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		r.live[c] = struct{}{}
		r.mu.Unlock()
		r.net.mu.Lock()
		r.net.conns = append(r.net.conns, c)
		r.net.mu.Unlock()
		c.start()
	}
}

// relayConn is one relayed connection: a pump per direction, each split
// into a reader that parses and timestamps chunks and a writer that
// releases them after the level's delay.
type relayConn struct {
	relay   *Relay
	in, out net.Conn

	bytes     atomic.Int64
	direct    atomic.Bool // carried a direct-get request: a client -> server hop
	handshake atomic.Bool // first request was a hello: later frames carry IDs
	broken    atomic.Bool

	mu        sync.Mutex // guards span bookkeeping
	pending   map[uint64]*Span
	pendingV1 []*Span
}

func (c *relayConn) hop() Hop {
	if c.relay.hop == HopBS && c.direct.Load() {
		return HopCS
	}
	return c.relay.hop
}

// chunkPool recycles read buffers: a relay moves every byte of the
// cluster, and allocating per read would put the harness's own garbage
// collection into the latencies it measures.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, 16<<10); return &b }}

// chunk is one read's worth of bytes on its way through the delay line,
// with the spans whose request or response ends inside it.
type chunk struct {
	buf   *[]byte // pooled backing array, returned once written
	data  []byte
	due   time.Time
	marks []mark
}

type mark struct {
	span *Span
	resp bool
}

func (c *relayConn) start() {
	r := c.relay
	d := r.net.delay[r.level]
	up := make(chan chunk, 256)   // one connection's in-flight reads; backpressure beyond
	down := make(chan chunk, 256) // same bound for the response direction
	r.wg.Add(4)
	go c.read(c.in, up, d, true)
	go c.write(c.out, up)
	go c.read(c.out, down, d, false)
	go c.write(c.in, down)
}

// shut closes both sockets; the pumps then drain and exit.
func (c *relayConn) shut() {
	c.in.Close()
	c.out.Close()
}

func (c *relayConn) read(src net.Conn, ch chan<- chunk, delay time.Duration, up bool) {
	defer c.relay.wg.Done()
	defer close(ch)
	f := framer{first: up}
	for {
		buf := chunkPool.Get().(*[]byte)
		n, err := src.Read(*buf)
		if n == 0 {
			chunkPool.Put(buf)
		} else {
			at := time.Now()
			ck := chunk{buf: buf, data: (*buf)[:n], due: at.Add(delay)}
			c.bytes.Add(int64(n))
			if !c.broken.Load() {
				now := int64(at.Sub(c.relay.net.epoch))
				if perr := f.feed(ck.data, now, c.handshake.Load, func(fr frame) {
					if up {
						c.onRequest(fr, &ck)
					} else {
						c.onResponse(fr, &ck)
					}
					if up && fr.hello {
						c.handshake.Store(true)
					}
				}); perr != nil {
					c.fail()
				}
			}
			ch <- ck
		}
		if err != nil {
			return
		}
	}
}

func (c *relayConn) write(dst net.Conn, ch <-chan chunk) {
	defer c.relay.wg.Done()
	w := newWaiter()
	defer w.close()
	var batch []chunk
	var bufs net.Buffers
	// send delivers a batch in one write; after a failed write the pump
	// keeps draining so the reader never blocks on a dead peer.
	ok := true
	send := func() {
		if !ok || len(batch) == 0 {
			return
		}
		bufs = bufs[:0]
		now := c.relay.net.now()
		for _, b := range batch {
			c.settleRequests(b.marks, now)
			bufs = append(bufs, b.data)
		}
		_, err := bufs.WriteTo(dst)
		now = c.relay.net.now()
		for i, b := range batch {
			c.settleResponses(b.marks, now)
			chunkPool.Put(b.buf)
			batch[i] = chunk{}
		}
		if err != nil {
			ok = false
			c.shut()
		}
	}
	for ck := range ch {
		w.until(ck.due)
		batch = append(batch[:0], ck)
		// Chunks already due leave in the same write; the first one not
		// yet due waits for the next round.
		var held *chunk
	gather:
		for len(batch) < 64 {
			select {
			case next, open := <-ch:
				if !open {
					break gather
				}
				if time.Until(next.due) > 0 {
					held = &next
					break gather
				}
				batch = append(batch, next)
			default:
				break gather
			}
		}
		send()
		if held != nil {
			w.until(held.due)
			batch = append(batch[:0], *held)
			send()
		}
	}
	c.shut()
	c.relay.mu.Lock()
	delete(c.relay.live, c)
	c.relay.mu.Unlock()
}

// fail marks the connection unparseable: its bytes still count, its spans
// are dropped, and the network reports it.
func (c *relayConn) fail() {
	if c.broken.Swap(true) {
		return
	}
	c.mu.Lock()
	c.pending = map[uint64]*Span{}
	c.pendingV1 = nil
	c.mu.Unlock()
	n := c.relay.net
	n.mu.Lock()
	n.unparsed++
	n.mu.Unlock()
}

func (c *relayConn) onRequest(fr frame, ck *chunk) {
	if fr.typ == opDirectGet {
		c.direct.Store(true)
	}
	if !c.relay.net.tracing.Load() {
		return
	}
	s := &Span{Hop: c.relay.hop, Level: c.relay.level, Op: fr.typ, Start: fr.start, ReqBytes: fr.size}
	c.mu.Lock()
	if fr.v2 {
		c.pending[fr.id] = s
	} else {
		c.pendingV1 = append(c.pendingV1, s)
	}
	c.mu.Unlock()
	ck.marks = append(ck.marks, mark{span: s})
}

func (c *relayConn) onResponse(fr frame, ck *chunk) {
	c.mu.Lock()
	var s *Span
	if fr.v2 {
		s = c.pending[fr.id]
		delete(c.pending, fr.id)
	} else if len(c.pendingV1) > 0 {
		s = c.pendingV1[0]
		c.pendingV1 = c.pendingV1[1:]
	}
	if s != nil {
		s.Back = fr.start
		s.RespBytes = fr.size
	}
	c.mu.Unlock()
	if s != nil {
		ck.marks = append(ck.marks, mark{span: s, resp: true})
	}
}

// settleRequests stamps the requests a chunk completes with the moment
// the relay sends them on. It runs before the write, so a response can
// never overtake it.
func (c *relayConn) settleRequests(marks []mark, at int64) {
	if len(marks) == 0 {
		return
	}
	c.mu.Lock()
	for _, m := range marks {
		if !m.resp {
			m.span.Fwd = at
		}
	}
	c.mu.Unlock()
}

// settleResponses stamps the responses a chunk completes with the moment
// the caller has them, and publishes the finished spans.
func (c *relayConn) settleResponses(marks []mark, at int64) {
	if len(marks) == 0 {
		return
	}
	var done []Span
	c.mu.Lock()
	for _, m := range marks {
		if !m.resp || m.span.Fwd == 0 {
			continue
		}
		m.span.End = at
		if c.direct.Load() {
			m.span.Hop = HopCS
		}
		done = append(done, *m.span)
	}
	c.mu.Unlock()
	if len(done) == 0 {
		return
	}
	n := c.relay.net
	n.mu.Lock()
	n.spans = append(n.spans, done...)
	n.mu.Unlock()
}

// frame describes one delimited frame.
type frame struct {
	typ   uint8
	id    uint64
	v2    bool
	hello bool
	size  int   // bytes on the wire, length prefix included
	start int64 // when its first byte reached the relay
}

// framer delimits frames in one direction of a connection from chunks
// that may split or join them arbitrarily.
type framer struct {
	first bool // request direction, first frame not yet seen
	seen  bool // a frame has been delimited in this direction
	v2    bool // frames carry request IDs

	hdr   [v2HeaderLen]byte
	hn    int   // header bytes collected for the current frame
	need  int   // header bytes to collect before skipping the body
	size  int   // current frame's total size, length prefix included
	rest  int   // body bytes still to skip
	start int64 // first byte of the current frame
	cur   bool  // a frame is in progress
}

// feed consumes p, received at now. handshake reports whether the
// connection's request direction opened with a hello, which switches the
// response direction to ID-carrying frames after its first frame.
func (f *framer) feed(p []byte, now int64, handshake func() bool, emit func(frame)) error {
	for len(p) > 0 {
		if !f.cur {
			f.cur, f.hn, f.need, f.rest, f.start = true, 0, 4, 0, now
		}
		if f.hn < f.need {
			k := copy(f.hdr[f.hn:f.need], p)
			f.hn += k
			p = p[k:]
			if f.hn < f.need {
				return nil
			}
			if f.need == 4 {
				l := int(binary.LittleEndian.Uint32(f.hdr[:4]))
				hl := v1HeaderLen
				if f.v2 {
					hl = v2HeaderLen
				}
				if l < hl-4 || l > maxFrameLen {
					return errBadFraming
				}
				f.size = 4 + l
				f.need = hl
				if f.first {
					f.need = min(helloPeekLen, f.size)
				}
				continue
			}
			f.rest = f.size - f.hn
		}
		k := min(f.rest, len(p))
		f.rest -= k
		p = p[k:]
		if f.rest > 0 {
			return nil
		}
		fr := frame{typ: f.hdr[4], v2: f.v2, size: f.size, start: f.start}
		if f.v2 {
			fr.id = binary.LittleEndian.Uint64(f.hdr[5:13])
		}
		if f.first {
			fr.hello = f.hn >= helloPeekLen && [4]byte(f.hdr[5:9]) == helloMagic
		}
		// The first exchange of a handshaken connection is v1-framed; both
		// directions carry request IDs from the next frame on.
		if (f.first && fr.hello) || (!f.seen && !f.first && handshake()) {
			f.v2 = true
		}
		f.first = false
		f.seen = true
		f.cur = false
		emit(fr)
	}
	return nil
}
