// Package cluster is a runnable multi-node implementation of the DynaSoRe
// API (§3.1) on real TCP sockets: cache servers hold views in memory,
// brokers execute Read(u, L)/Write(u) against them, a WAL-backed persistent
// store guarantees durability (§3.3), and a broker-side controller
// replicates hot views next to their readers in the spirit of §3.2. It is
// the drop-in-for-memcache prototype the paper describes, sized to run on a
// single machine with one process per node.
//
// Every listener speaks one wire dialect, version 3, in one of two
// framings. Plain frames are uint32(length) | uint8(type) | body and carry
// one request per connection at a time. A connection whose first frame is
// an opHello offering version 3 switches both directions to muxed frames,
// uint32(length) | uint8(type) | uint64(requestID) | body, so many requests
// run concurrently over it; Client (and so pkg/dynasore) always uses
// them. Brokers keep plain framing on the links they pool themselves —
// broker→cache server and broker→broker — because the fan-out is where
// the frames are: the perfbench feed-broker workload measures 62.8
// broker→server frames per read, so a request ID on each would add about
// 450 B to an op that moves 9,621 B today (+5%). The framing is the only
// difference: every op has one body layout on both.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
	"dynasore/internal/wal"
)

// Message types of the wire protocol, shared by both framings. Values are
// part of the wire format: append, never reorder.
const (
	// Broker <-> cache server.
	opGetView uint8 = iota + 1
	opPutView
	opDeleteView
	_ // retired cache-server stats op; the slot keeps later values stable
	// Client <-> broker.
	opRead
	opWrite
	opBrokerStats
	// Responses.
	respView
	respMiss
	respOK
	respRead
	respWrite
	respStats
	respError
	// Handshake that switches a connection to muxed framing.
	opHello
	respHello
	// Broker <-> broker placement sync (multi-broker clusters): liveness
	// pings doubling as election beacons, replica-set deltas pushed after
	// every placement change, full-table anti-entropy pulls, access-
	// statistics reports from follower brokers to the policy leader, and
	// write replication between per-broker WALs.
	opPeerHello
	opPlacementDelta
	opPlacementPull
	opAccessReport
	opSyncWrite
	respPlacement
	// WAL catch-up between per-broker logs (the durability/recovery
	// subsystem): a broker asks a peer for its per-origin applied
	// high-water marks, then pulls exactly the records it missed per
	// origin — so a peer that was down during replication converges
	// without waiting for new user writes.
	opLogCursors
	opLogPull
	respLogCursors
	respLogRecords
	// Elastic membership (internal/membership): admin requests to read or
	// mutate the epoch-versioned cache-server registry (mutations are
	// forwarded to the leader broker), plus the peer-sync pair — delta
	// broadcasts after every transition and anti-entropy pulls of the
	// leader's current view.
	opMembershipGet
	opServerAdd
	opServerDrain
	opServerRemove
	opMembershipDelta
	opMembershipPull
	respMembership
	// opPlacementBatch carries many placement entries in one frame (the
	// encodePlacementTable layout) — how a rebalance or drain pass pushes
	// its whole outcome to each peer in O(1) round trips instead of one
	// opPlacementDelta per moved user.
	opPlacementBatch
	// Direct-read fast path: a client asks the broker to lease one user's
	// replica set (opLeaseGet → respLease), then reads the view straight
	// from a cache server (opDirectGet → respView). Two fencing tokens ride
	// every direct read — the membership epoch and the user's placement
	// version — and a server that cannot prove both current answers
	// respStaleRoute (fall back to the broker and re-lease) or respNotHere
	// (the replica moved away); it never silently serves a stale route.
	// opEpochPush is the broker→server epoch notification that arms the
	// fence on servers that receive no puts.
	opLeaseGet
	opDirectGet
	opEpochPush
	respLease
	respStaleRoute
	respNotHere

	// opViewPull asks a peer broker for its persistent store's view of one
	// user (4-byte little-endian user id → respView). Every acknowledged
	// write reaches its origin broker's store before the ack, so the max
	// over live peers' answers is a floor no cache fill may go below.
	opViewPull
)

// wireVersion is the one protocol version every node speaks, offered in
// the opHello body and echoed by the reply. Its opRead and opWrite bodies
// end in a mandatory 17-byte trace context (see internal/telemetry),
// zero-valued when the request is unsampled. Any other offer is refused.
const wireVersion = 3

const (
	maxFrame    = 16 << 20 // 16 MiB
	maxEventLen = 1 << 20
	// maxInflight caps concurrently executing requests per muxed connection.
	maxInflight = 64
)

// helloMagic opens every opHello body, so a handshake is never confused
// with a stray plain-framed request.
var helloMagic = [4]byte{'D', 'S', 'R', 'E'}

// Errors returned by protocol helpers and clients.
var (
	ErrFrameTooLarge  = errors.New("cluster: frame exceeds limit")
	ErrBadFrame       = errors.New("cluster: malformed frame")
	ErrRemote         = errors.New("cluster: remote error")
	ErrTooManyTargets = errors.New("cluster: too many read targets")
	ErrBadVersion     = errors.New("cluster: unsupported protocol version")
)

// writeFrame sends one plain frame: uint32(length) | uint8(type) | body.
func writeFrame(w io.Writer, msgType uint8, body []byte) error {
	if len(body)+1 > maxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)+1))
	hdr[4] = msgType
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame receives one plain frame.
func readFrame(r io.Reader) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size == 0 || size > maxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, size-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}

// writeMuxFrame sends one muxed frame:
// uint32(length) | uint8(type) | uint64(requestID) | body.
func writeMuxFrame(w io.Writer, msgType uint8, id uint64, body []byte) error {
	if len(body)+9 > maxFrame {
		return ErrFrameTooLarge
	}
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)+9))
	hdr[4] = msgType
	binary.LittleEndian.PutUint64(hdr[5:13], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readMuxFrame receives one muxed frame.
func readMuxFrame(r io.Reader) (uint8, uint64, []byte, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:5]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size < 9 || size > maxFrame {
		return 0, 0, nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[5:13]); err != nil {
		return 0, 0, nil, err
	}
	id := binary.LittleEndian.Uint64(hdr[5:13])
	body := make([]byte, size-9)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return hdr[4], id, body, nil
}

// helloBody builds an opHello payload offering version.
func helloBody(version uint8) []byte {
	return append(helloMagic[:], version)
}

// parseHello validates an opHello body: the magic followed by an offer of
// exactly wireVersion.
func parseHello(body []byte) error {
	if len(body) != 5 || [4]byte(body[0:4]) != helloMagic {
		return ErrBadFrame
	}
	if body[4] != wireVersion {
		return ErrBadVersion
	}
	return nil
}

// clientHello switches a fresh connection to muxed framing. The handshake
// itself is plain-framed; every later frame on the connection is muxed.
func clientHello(conn net.Conn) error {
	if err := writeFrame(conn, opHello, helloBody(wireVersion)); err != nil {
		return fmt.Errorf("cluster: send hello: %w", err)
	}
	msgType, body, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("cluster: read hello reply: %w", err)
	}
	switch msgType {
	case respHello:
		if len(body) != 1 || body[0] != wireVersion {
			return ErrBadVersion
		}
		return nil
	case respError:
		return asRemoteError(body)
	default:
		return ErrBadVersion
	}
}

// handlerFunc executes one request and returns the response frame. It must
// be safe for concurrent use: muxed connections dispatch requests in
// parallel.
type handlerFunc func(msgType uint8, body []byte) (uint8, []byte)

// serveFrames drives one accepted connection. A first frame of opHello
// switches it to muxed framing, where each request is handled in its own
// goroutine and responses are matched to callers by request ID; any other
// first frame selects the plain loop, one request at a time.
func serveFrames(conn net.Conn, handle handlerFunc) {
	msgType, body, err := readFrame(conn)
	if err != nil {
		return
	}
	if msgType == opHello {
		if err := parseHello(body); err != nil {
			writeFrame(conn, respError, errorBody(err.Error()))
			return
		}
		if err := writeFrame(conn, respHello, []byte{wireVersion}); err != nil {
			return
		}
		serveMux(conn, handle)
		return
	}
	for {
		respType, respBody := handle(msgType, body)
		if err := writeFrame(conn, respType, respBody); err != nil {
			return
		}
		msgType, body, err = readFrame(conn)
		if err != nil {
			return
		}
	}
}

// serveMux runs the loop of a muxed connection: requests are dispatched
// concurrently (bounded by maxInflight) and responses serialized by a
// write mutex, each tagged with the ID of the request it answers.
func serveMux(conn net.Conn, handle handlerFunc) {
	var (
		//dynalint:allow lockio the response mutex exists to keep concurrent handler replies from interleaving on the socket
		wmu sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, maxInflight)
	)
	for {
		msgType, id, body, err := readMuxFrame(conn)
		if err != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			respType, respBody := handle(msgType, body)
			wmu.Lock()
			err := writeMuxFrame(conn, respType, id, respBody)
			wmu.Unlock()
			if err != nil {
				conn.Close() // unblocks the read loop
			}
		}()
	}
	wg.Wait()
}

// encodeReadRequest builds an opRead body, before its trace suffix:
// uint32(count) | count × uint32(user).
func encodeReadRequest(targets []uint32) ([]byte, error) {
	if 4+4*len(targets)+telemetry.TraceContextLen+9 > maxFrame {
		return nil, fmt.Errorf("%w: %d targets exceed frame limit", ErrTooManyTargets, len(targets))
	}
	body := make([]byte, 0, 4+4*len(targets)+telemetry.TraceContextLen)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(targets)))
	for _, u := range targets {
		body = binary.LittleEndian.AppendUint32(body, u)
	}
	return body, nil
}

// decodeReadRequest parses an opRead body with its trace suffix already
// split off. The count must account for every remaining byte; it is
// checked in 64-bit arithmetic before any allocation, so a hostile count
// can neither overallocate nor overflow int on 32-bit platforms.
func decodeReadRequest(body []byte) ([]uint32, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	if 4*count64 != int64(len(body)-4) {
		return nil, ErrBadFrame
	}
	targets := make([]uint32, count64)
	for i := range targets {
		targets[i] = binary.LittleEndian.Uint32(body[4+4*i:])
	}
	return targets, nil
}

// encodeReadResponse builds a respRead body: uint32(count) | count views |
// uint64(epoch), the responder's membership epoch, which lets a client
// notice a membership change without an extra round trip.
func encodeReadResponse(views []View, epoch uint64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(views)))
	for _, v := range views {
		out = encodeView(out, v)
	}
	return binary.LittleEndian.AppendUint64(out, epoch)
}

// decodeReadResponse parses a respRead body.
func decodeReadResponse(body []byte) ([]View, uint64, error) {
	if len(body) < 4 {
		return nil, 0, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	// An encoded view is at least 10 bytes, so a count the body cannot
	// hold is malformed — reject before trusting it for allocation.
	if count64 > int64(len(body)-4)/10 {
		return nil, 0, ErrBadFrame
	}
	rest := body[4:]
	views := make([]View, 0, count64)
	for i := int64(0); i < count64; i++ {
		var v View
		var err error
		v, rest, err = decodeView(rest)
		if err != nil {
			return nil, 0, err
		}
		views = append(views, v)
	}
	if len(rest) != 8 {
		return nil, 0, ErrBadFrame
	}
	return views, binary.LittleEndian.Uint64(rest), nil
}

// View is a producer-pivoted view: the user's latest events, oldest first,
// plus a version (the WAL sequence number of the newest event).
type View struct {
	Version uint64
	Events  [][]byte
}

// encodeView appends a view's wire form to buf.
func encodeView(buf []byte, v View) []byte {
	// Grow once per view (amortized): the hot read path encodes a view per
	// response, and incremental appends would reallocate several times per
	// call.
	need := 10
	for _, e := range v.Events {
		need += 4 + len(e)
	}
	buf = slices.Grow(buf, need)
	buf = binary.LittleEndian.AppendUint64(buf, v.Version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.Events)))
	for _, e := range v.Events {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// decodeView parses a view and returns the remaining bytes.
func decodeView(b []byte) (View, []byte, error) {
	if len(b) < 10 {
		return View{}, nil, ErrBadFrame
	}
	v := View{Version: binary.LittleEndian.Uint64(b[0:8])}
	count := int(binary.LittleEndian.Uint16(b[8:10]))
	b = b[10:]
	v.Events = make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return View{}, nil, ErrBadFrame
		}
		n := binary.LittleEndian.Uint32(b[0:4])
		if n > maxEventLen || len(b) < 4+int(n) {
			return View{}, nil, ErrBadFrame
		}
		ev := make([]byte, n)
		copy(ev, b[4:4+n])
		v.Events = append(v.Events, ev)
		b = b[4+n:]
	}
	return v, b, nil
}

// encodePeerHello builds an opPeerHello body: the sender's index in the
// cluster-wide broker list, so the receiver can sanity-check membership.
func encodePeerHello(sender uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, sender)
}

// decodePeerHello parses an opPeerHello body.
func decodePeerHello(body []byte) (uint32, error) {
	if len(body) < 4 {
		return 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint32(body[0:4]), nil
}

// placementEntry is one user's replica set on the wire: the cache-server
// indices holding its view, in replica-set order (home first). Server
// indices refer to the cluster-wide ServerAddrs order every broker shares.
type placementEntry struct {
	user  uint32
	order []int
}

// appendPlacementEntry appends one entry's wire form to buf:
// uint32(user) | uint16(n) | n × uint16(server index).
func appendPlacementEntry(buf []byte, user uint32, order []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, user)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(order)))
	for _, idx := range order {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(idx))
	}
	return buf
}

// decodePlacementEntry parses one entry and returns the remaining bytes.
func decodePlacementEntry(b []byte) (placementEntry, []byte, error) {
	if len(b) < 6 {
		return placementEntry{}, nil, ErrBadFrame
	}
	e := placementEntry{user: binary.LittleEndian.Uint32(b[0:4])}
	n := int(binary.LittleEndian.Uint16(b[4:6]))
	b = b[6:]
	if len(b) < 2*n {
		return placementEntry{}, nil, ErrBadFrame
	}
	e.order = make([]int, n)
	for i := range e.order {
		e.order[i] = int(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return e, b[2*n:], nil
}

// encodePlacementTable builds a respPlacement body: uint32(count) followed
// by that many placement entries — the anti-entropy snapshot of a broker's
// whole view table.
func encodePlacementTable(entries []placementEntry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		buf = appendPlacementEntry(buf, e.user, e.order)
	}
	return buf
}

// decodePlacementTable parses a respPlacement body. The count is validated
// against the smallest possible entry size before any allocation.
func decodePlacementTable(body []byte) ([]placementEntry, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	if count64 > int64(len(body)-4)/6 {
		return nil, ErrBadFrame
	}
	entries := make([]placementEntry, 0, count64)
	rest := body[4:]
	for i := int64(0); i < count64; i++ {
		var e placementEntry
		var err error
		e, rest, err = decodePlacementEntry(rest)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// reportRead is one follower-observed read aggregate: count reads of user's
// view served from the given cache server since the last report.
type reportRead struct {
	user   uint32
	server uint16
	count  uint32
}

// reportWrite is one follower-observed write aggregate.
type reportWrite struct {
	user  uint32
	count uint32
}

// encodeAccessReport builds an opAccessReport body:
// uint32(sender) | uint32(nReads) | nReads × {user, server, count} |
// uint32(nWrites) | nWrites × {user, count}.
func encodeAccessReport(sender uint32, reads []reportRead, writes []reportWrite) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, sender)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(reads)))
	for _, r := range reads {
		buf = binary.LittleEndian.AppendUint32(buf, r.user)
		buf = binary.LittleEndian.AppendUint16(buf, r.server)
		buf = binary.LittleEndian.AppendUint32(buf, r.count)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(writes)))
	for _, w := range writes {
		buf = binary.LittleEndian.AppendUint32(buf, w.user)
		buf = binary.LittleEndian.AppendUint32(buf, w.count)
	}
	return buf
}

// decodeAccessReport parses an opAccessReport body, validating both counts
// against the bytes actually present before allocating.
func decodeAccessReport(body []byte) (sender uint32, reads []reportRead, writes []reportWrite, err error) {
	if len(body) < 12 {
		return 0, nil, nil, ErrBadFrame
	}
	sender = binary.LittleEndian.Uint32(body[0:4])
	nReads := int64(binary.LittleEndian.Uint32(body[4:8]))
	rest := body[8:]
	if nReads > int64(len(rest))/10 {
		return 0, nil, nil, ErrBadFrame
	}
	reads = make([]reportRead, nReads)
	for i := range reads {
		reads[i] = reportRead{
			user:   binary.LittleEndian.Uint32(rest[0:4]),
			server: binary.LittleEndian.Uint16(rest[4:6]),
			count:  binary.LittleEndian.Uint32(rest[6:10]),
		}
		rest = rest[10:]
	}
	if len(rest) < 4 {
		return 0, nil, nil, ErrBadFrame
	}
	nWrites := int64(binary.LittleEndian.Uint32(rest[0:4]))
	rest = rest[4:]
	if nWrites > int64(len(rest))/8 {
		return 0, nil, nil, ErrBadFrame
	}
	writes = make([]reportWrite, nWrites)
	for i := range writes {
		writes[i] = reportWrite{
			user:  binary.LittleEndian.Uint32(rest[0:4]),
			count: binary.LittleEndian.Uint32(rest[4:8]),
		}
		rest = rest[8:]
	}
	return sender, reads, writes, nil
}

// splitTraceSuffix separates the mandatory 17-byte trace context that
// ends every opRead and opWrite body from the structured payload ahead of
// it. The context is zero-valued (unsampled) on the overwhelming majority
// of requests; a body too short to carry the suffix is malformed.
func splitTraceSuffix(body []byte) ([]byte, telemetry.TraceContext, error) {
	if len(body) < telemetry.TraceContextLen {
		return nil, telemetry.TraceContext{}, ErrBadFrame
	}
	cut := len(body) - telemetry.TraceContextLen
	tc, _ := telemetry.DecodeTraceContext(body[cut:])
	return body[:cut], tc, nil
}

// appendTraceTrailer appends the optional trace context that ends the
// broker-sent opGetView, opPutView and opSyncWrite bodies: present only
// when tc is sampled, so unsampled requests carry no trace bytes.
func appendTraceTrailer(b []byte, tc telemetry.TraceContext) []byte {
	if !tc.Sampled() {
		return b
	}
	return telemetry.AppendTraceContext(b, tc)
}

// decodeTraceTrailer parses what follows a body's structured payload:
// nothing (unsampled) or exactly one trace context.
func decodeTraceTrailer(rest []byte) (telemetry.TraceContext, error) {
	switch len(rest) {
	case 0:
		return telemetry.TraceContext{}, nil
	case telemetry.TraceContextLen:
		tc, _ := telemetry.DecodeTraceContext(rest)
		return tc, nil
	default:
		return telemetry.TraceContext{}, ErrBadFrame
	}
}

// encodeSyncWrite builds an opSyncWrite body: one durably sequenced event
// being replicated to a peer broker's write-ahead log, with the trace
// trailer of a sampled write so the trace a client minted shows every
// peer broker the write touched:
// uint32(user) | uint64(seq) | uint64(at) | uint32(plen) | payload | trace.
func encodeSyncWrite(user uint32, seq uint64, at int64, payload []byte, tc telemetry.TraceContext) []byte {
	buf := make([]byte, 0, 24+len(payload)+telemetry.TraceContextLen)
	buf = binary.LittleEndian.AppendUint32(buf, user)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return appendTraceTrailer(buf, tc)
}

// decodeSyncWrite parses an opSyncWrite body. The payload aliases the
// frame buffer; callers that retain it must copy.
func decodeSyncWrite(body []byte) (user uint32, seq uint64, at int64, payload []byte, tc telemetry.TraceContext, err error) {
	if len(body) < 24 {
		return 0, 0, 0, nil, tc, ErrBadFrame
	}
	user = binary.LittleEndian.Uint32(body[0:4])
	seq = binary.LittleEndian.Uint64(body[4:12])
	at = int64(binary.LittleEndian.Uint64(body[12:20]))
	plen := binary.LittleEndian.Uint32(body[20:24])
	rest := body[24:]
	if plen > maxEventLen || int64(plen) > int64(len(rest)) {
		return 0, 0, 0, nil, tc, ErrBadFrame
	}
	if tc, err = decodeTraceTrailer(rest[plen:]); err != nil {
		return 0, 0, 0, nil, tc, err
	}
	return user, seq, at, rest[:plen], tc, nil
}

// encodeLogCursors builds a respLogCursors body: the responder's
// per-origin applied cursors (exclusive high-water marks: one past the
// highest applied sequence number), sorted by origin:
// uint32(n) | n × { uint64 origin, uint64 cursor }.
func encodeLogCursors(cursors map[uint64]uint64) []byte {
	origins := make([]uint64, 0, len(cursors))
	for o := range cursors {
		origins = append(origins, o)
	}
	slices.Sort(origins)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(origins)))
	for _, o := range origins {
		buf = binary.LittleEndian.AppendUint64(buf, o)
		buf = binary.LittleEndian.AppendUint64(buf, cursors[o])
	}
	return buf
}

// decodeLogCursors parses a respLogCursors body, validating the count
// against the bytes present before allocating.
func decodeLogCursors(body []byte) (map[uint64]uint64, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(body[0:4]))
	rest := body[4:]
	if n > int64(len(rest))/16 {
		return nil, ErrBadFrame
	}
	cursors := make(map[uint64]uint64, n)
	for i := int64(0); i < n; i++ {
		cursors[binary.LittleEndian.Uint64(rest[0:8])] = binary.LittleEndian.Uint64(rest[8:16])
		rest = rest[16:]
	}
	return cursors, nil
}

// encodeLogPull builds an opLogPull body: "send me up to max of origin's
// records with sequence numbers at or above the cursor from":
// uint64(origin) | uint64(from) | uint32(max).
func encodeLogPull(origin, from uint64, max uint32) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, origin)
	buf = binary.LittleEndian.AppendUint64(buf, from)
	return binary.LittleEndian.AppendUint32(buf, max)
}

// decodeLogPull parses an opLogPull body.
func decodeLogPull(body []byte) (origin, from uint64, max uint32, err error) {
	if len(body) < 20 {
		return 0, 0, 0, ErrBadFrame
	}
	origin = binary.LittleEndian.Uint64(body[0:8])
	from = binary.LittleEndian.Uint64(body[8:16])
	max = binary.LittleEndian.Uint32(body[16:20])
	return origin, from, max, nil
}

// logRecordOverhead is the fixed wire size of one record in a
// respLogRecords body, before its payload.
const logRecordOverhead = 8 + 4 + 8 + 4

// encodeLogRecords builds a respLogRecords body:
// uint32(n) | n × { uint64 seq, uint32 user, uint64 at, uint32 len, payload }.
func encodeLogRecords(recs []wal.Record) []byte {
	size := 4
	for _, r := range recs {
		size += logRecordOverhead + len(r.Payload)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, r.User)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.At))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	return buf
}

// decodeLogRecords parses a respLogRecords body. Payloads alias the frame
// buffer, which readFrame allocates per frame — retaining them is safe.
func decodeLogRecords(body []byte) ([]wal.Record, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(body[0:4]))
	rest := body[4:]
	if n > int64(len(rest))/logRecordOverhead {
		return nil, ErrBadFrame
	}
	recs := make([]wal.Record, 0, n)
	for i := int64(0); i < n; i++ {
		if len(rest) < logRecordOverhead {
			return nil, ErrBadFrame
		}
		r := wal.Record{
			Seq:  binary.LittleEndian.Uint64(rest[0:8]),
			User: binary.LittleEndian.Uint32(rest[8:12]),
			At:   int64(binary.LittleEndian.Uint64(rest[12:20])),
		}
		plen := binary.LittleEndian.Uint32(rest[20:24])
		rest = rest[24:]
		if plen > maxEventLen || int64(plen) > int64(len(rest)) {
			return nil, ErrBadFrame
		}
		r.Payload = rest[:plen]
		rest = rest[plen:]
		recs = append(recs, r)
	}
	return recs, nil
}

// MembershipInfo pairs a broker's current membership view with its
// per-slot replica counts (Loads[i] is how many views the broker accounts
// to slot i) — the payload of a respMembership body. Loads let an operator
// watch a draining server's replica count fall to zero before removing it.
type MembershipInfo struct {
	View  membership.View
	Loads []int64
}

// encodeMembershipInfo builds a respMembership body: the encoded view
// followed by one u64 load per slot, slot-aligned.
func encodeMembershipInfo(info MembershipInfo) []byte {
	buf := membership.AppendView(nil, info.View)
	for i := range info.View.Servers {
		var l uint64
		if i < len(info.Loads) {
			l = uint64(info.Loads[i])
		}
		buf = binary.LittleEndian.AppendUint64(buf, l)
	}
	return buf
}

// decodeMembershipInfo parses a respMembership body; the loads must cover
// every slot exactly.
func decodeMembershipInfo(body []byte) (MembershipInfo, error) {
	v, rest, err := membership.DecodeView(body)
	if err != nil {
		return MembershipInfo{}, err
	}
	if len(rest) != 8*len(v.Servers) {
		return MembershipInfo{}, ErrBadFrame
	}
	info := MembershipInfo{View: v, Loads: make([]int64, len(v.Servers))}
	for i := range info.Loads {
		info.Loads[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return info, nil
}

// encodeWriteResponse builds a respWrite body: the event's sequence number
// and the responder's membership epoch — uint64(seq) | uint64(epoch).
func encodeWriteResponse(seq, epoch uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seq)
	return binary.LittleEndian.AppendUint64(b, epoch)
}

// decodeWriteResponse parses a respWrite body.
func decodeWriteResponse(b []byte) (seq, epoch uint64, err error) {
	if len(b) != 16 {
		return 0, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), nil
}

// encodeDirectView builds the respView answer to an opDirectGet: the view
// followed by the server's membership epoch, uint64(epoch).
func encodeDirectView(v View, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(encodeView(nil, v), epoch)
}

// decodeDirectView parses the respView answer to an opDirectGet.
func decodeDirectView(b []byte) (View, uint64, error) {
	v, rest, err := decodeView(b)
	if err != nil {
		return View{}, 0, err
	}
	if len(rest) != 8 {
		return View{}, 0, ErrBadFrame
	}
	return v, binary.LittleEndian.Uint64(rest), nil
}

// LeaseReplica is one replica location in a lease: the cache server's
// membership slot and the address a client dials for direct reads.
type LeaseReplica struct {
	Slot uint16
	Addr string
}

// Lease is a broker-granted right to read one user's view straight from
// its cache servers, valid for TTL and fenced by two tokens: the
// membership epoch it was minted under and the user's placement version
// (bumped whenever a replica leaves its server). A direct read carrying
// either token stale is refused by the server, so an expired route can
// never serve a wrong view — it falls back to the broker instead.
type Lease struct {
	User      uint32
	Epoch     uint64
	Placement uint64
	TTL       time.Duration
	Replicas  []LeaseReplica
}

// appendLeaseGrant appends a lease's wire form to buf:
// uint32(user) | uint64(epoch) | uint64(placement) | uint32(ttl ms) |
// uint16(n) | n × { uint16 slot, uint16 addrLen, addr }.
func appendLeaseGrant(buf []byte, l Lease) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, l.User)
	buf = binary.LittleEndian.AppendUint64(buf, l.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, l.Placement)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.TTL/time.Millisecond))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(l.Replicas)))
	for _, r := range l.Replicas {
		buf = binary.LittleEndian.AppendUint16(buf, r.Slot)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Addr)))
		buf = append(buf, r.Addr...)
	}
	return buf
}

// decodeLeaseGrant parses a respLease body. The replica count is
// validated against the bytes actually present before allocating.
func decodeLeaseGrant(b []byte) (Lease, error) {
	if len(b) < 26 {
		return Lease{}, ErrBadFrame
	}
	l := Lease{
		User:      binary.LittleEndian.Uint32(b[0:4]),
		Epoch:     binary.LittleEndian.Uint64(b[4:12]),
		Placement: binary.LittleEndian.Uint64(b[12:20]),
		TTL:       time.Duration(binary.LittleEndian.Uint32(b[20:24])) * time.Millisecond,
	}
	n := int64(binary.LittleEndian.Uint16(b[24:26]))
	b = b[26:]
	if n > int64(len(b))/4 {
		return Lease{}, ErrBadFrame
	}
	l.Replicas = make([]LeaseReplica, 0, n)
	for i := int64(0); i < n; i++ {
		if len(b) < 4 {
			return Lease{}, ErrBadFrame
		}
		slot := binary.LittleEndian.Uint16(b[0:2])
		alen := int(binary.LittleEndian.Uint16(b[2:4]))
		b = b[4:]
		if len(b) < alen {
			return Lease{}, ErrBadFrame
		}
		l.Replicas = append(l.Replicas, LeaseReplica{Slot: slot, Addr: string(b[:alen])})
		b = b[alen:]
	}
	return l, nil
}

// encodeDirectGet builds an opDirectGet body: the target user plus the
// client's two fencing tokens —
// uint32(user) | uint64(epoch) | uint64(placement).
func encodeDirectGet(user uint32, epoch, placement uint64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, user)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodeDirectGet parses an opDirectGet body.
func decodeDirectGet(b []byte) (user uint32, epoch, placement uint64, err error) {
	if len(b) < 20 {
		return 0, 0, 0, ErrBadFrame
	}
	user = binary.LittleEndian.Uint32(b[0:4])
	epoch = binary.LittleEndian.Uint64(b[4:12])
	placement = binary.LittleEndian.Uint64(b[12:20])
	return user, epoch, placement, nil
}

// appendStaleRoute builds a respStaleRoute body: the server's own view of
// the two fencing tokens — uint64(epoch) | uint64(placement) — so the
// refused client learns how far behind its lease is.
func appendStaleRoute(buf []byte, epoch, placement uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodeStaleRoute parses a respStaleRoute body.
func decodeStaleRoute(b []byte) (epoch, placement uint64, err error) {
	if len(b) < 16 {
		return 0, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), nil
}

// appendPutMeta appends the direct-read fencing metadata to an opPutView
// body, after the encoded view: uint64(epoch) | uint64(placement) — the
// membership epoch and the placement version of the view the server now
// holds. A placement version of 0 is a view that was never re-placed; it
// can never out-fence a lease.
func appendPutMeta(buf []byte, epoch, placement uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodePutMeta reads the put metadata and returns what follows it.
func decodePutMeta(b []byte) (epoch, placement uint64, rest []byte, err error) {
	if len(b) < 16 {
		return 0, 0, nil, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), b[16:], nil
}

// statsLen is the fixed size of an opBrokerStats response body: every
// counter of statCounters, in table order, then the epoch.
const statsLen = (len(statCounters) + 1) * 8

// appendStats encodes a broker's respStats body.
func appendStats(b []byte, st Stats) []byte {
	for _, c := range statCounters {
		b = binary.LittleEndian.AppendUint64(b, uint64(*c.field(&st)))
	}
	return binary.LittleEndian.AppendUint64(b, st.Epoch)
}

// decodeStats parses a broker's respStats body.
func decodeStats(body []byte) (Stats, error) {
	var st Stats
	if len(body) != statsLen {
		return st, ErrBadFrame
	}
	for i, c := range statCounters {
		*c.field(&st) = int64(binary.LittleEndian.Uint64(body[i*8:]))
	}
	st.Epoch = binary.LittleEndian.Uint64(body[statsLen-8:])
	return st, nil
}

// errorBody builds a respError payload.
func errorBody(msg string) []byte { return []byte(msg) }

// wireErrs maps the sentinel errors that keep their identity across the
// wire to one-byte codes. A coded respError body is "!<code> <message>";
// asRemoteError reattaches the sentinel so errors.Is works on the client
// side without matching on error text. Codes are part of the wire format:
// add, never reuse.
var wireErrs = []struct {
	code byte
	err  error
}{
	{'L', ErrNotLeader},
	{'E', ErrStaleEpoch},
	{'R', ErrReservedUser},
	{'T', ErrTooManyTargets},
	{'U', membership.ErrUnknownServer},
	{'D', membership.ErrDuplicateAddr},
	{'A', membership.ErrLastActive},
}

// errorBodyFor builds a respError payload from an error, prefixing the
// code of the first matching wire sentinel so the remote client can
// reconstruct it. Errors matching no sentinel travel as their plain text.
func errorBodyFor(err error) []byte {
	for _, we := range wireErrs {
		if errors.Is(err, we.err) {
			return append([]byte{'!', we.code, ' '}, err.Error()...)
		}
	}
	return []byte(err.Error())
}

// remoteError is a respError decoded from the wire: it renders as the
// remote's message and unwraps to both ErrRemote and the sentinel named by
// the body's code, so errors.Is(err, cluster.ErrNotLeader) holds on the
// client exactly as it does in-process.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return "cluster: remote error: " + e.msg }

func (e *remoteError) Unwrap() []error { return []error{ErrRemote, e.sentinel} }

// asRemoteError converts a respError payload into an error, reattaching
// the coded sentinel when the body carries one.
func asRemoteError(body []byte) error {
	msg := string(body)
	if len(msg) >= 3 && msg[0] == '!' && msg[1] >= 'A' && msg[1] <= 'Z' && msg[2] == ' ' {
		for _, we := range wireErrs {
			if we.code == msg[1] {
				return &remoteError{sentinel: we.err, msg: msg[3:]}
			}
		}
		// A code this build does not know: surface the text untouched.
		msg = msg[3:]
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}
