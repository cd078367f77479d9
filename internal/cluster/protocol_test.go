package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
	"dynasore/internal/wal"
)

// --- frame-level edge cases ---

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, opRead, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := readFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("truncated frame of %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestReadFrameZeroAndOversize(t *testing.T) {
	for _, size := range []uint32{0, maxFrame + 1, 0xFFFFFFFF} {
		hdr := binary.LittleEndian.AppendUint32(nil, size)
		hdr = append(hdr, opRead)
		_, _, err := readFrame(bytes.NewReader(hdr))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("size %d: err = %v, want ErrFrameTooLarge", size, err)
		}
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	if err := writeFrame(io.Discard, opWrite, make([]byte, maxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	if err := writeMuxFrame(io.Discard, opWrite, 1, make([]byte, maxFrame-8)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("muxed err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMuxFrame(&buf, respRead, 0xDEADBEEFCAFE, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msgType, id, body, err := readMuxFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != respRead || id != 0xDEADBEEFCAFE || string(body) != "payload" {
		t.Errorf("round trip = (%d, %x, %q)", msgType, id, body)
	}
}

func TestReadFrameV2Undersized(t *testing.T) {
	// A muxed frame must hold at least type + request ID (9 bytes).
	hdr := binary.LittleEndian.AppendUint32(nil, 5)
	hdr = append(hdr, opRead, 0, 0, 0, 0)
	if _, _, _, err := readMuxFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestParseHello pins the handshake: only an offer of exactly the one
// wire version is accepted; malformed bodies are bad frames.
func TestParseHello(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"offer 3", helloBody(3), nil},
		{"offer 1", helloBody(1), ErrBadVersion},
		{"offer 2", helloBody(2), ErrBadVersion},
		{"offer 4", helloBody(4), ErrBadVersion},
		{"offer 0", helloBody(0), ErrBadVersion},
		{"bad magic", []byte("XXXX\x03"), ErrBadFrame},
		{"short", []byte{'D', 'S'}, ErrBadFrame},
		{"trailing byte", append(helloBody(3), 0), ErrBadFrame},
	} {
		if err := parseHello(tc.body); !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
			t.Errorf("%s: parseHello = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadRequestCounts(t *testing.T) {
	// The count is a uint32: more targets than a uint16 could express
	// round-trip.
	big := make([]uint32, 70000)
	body, err := encodeReadRequest(big)
	if err != nil {
		t.Fatalf("70000 targets: %v", err)
	}
	targets, err := decodeReadRequest(body)
	if err != nil || len(targets) != 70000 {
		t.Fatalf("decode = %d targets, %v", len(targets), err)
	}
	// The count must account for every byte: short and long bodies are
	// both malformed.
	small, err := encodeReadRequest([]uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, {9}, small[:len(small)-2], small[:len(small)-4], append(small, 0)} {
		if _, err := decodeReadRequest(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("request of %d bytes: err = %v, want ErrBadFrame", len(bad), err)
		}
	}
}

// --- live-connection protocol behavior ---

func TestUnknownMessageTypeGetsError(t *testing.T) {
	_, _, c := testCluster(t, 1, nil)
	respType, body, err := c.do(context.Background(), 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	if respType != respError {
		t.Errorf("respType = %d (%q), want respError", respType, body)
	}
}

func TestHelloBadMagicRejected(t *testing.T) {
	b, _, _ := testCluster(t, 1, nil)
	c := newServerConn(b.Addr())
	defer c.close()
	respType, _, err := c.roundTrip(opHello, []byte("NOPE\x03"))
	if err != nil {
		t.Fatal(err)
	}
	if respType != respError {
		t.Errorf("respType = %d, want respError", respType)
	}
}

func TestV2WriteThenRead(t *testing.T) {
	b, _, _ := testCluster(t, 3, nil)
	ctx := context.Background()
	c := dialClient(t, b.Addr())
	if _, err := c.Write(ctx, 7, []byte("hello mux")); err != nil {
		t.Fatal(err)
	}
	views, err := c.Read(ctx, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || len(views[0].Events) != 1 || string(views[0].Events[0]) != "hello mux" {
		t.Fatalf("views = %+v", views)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestV2MultiplexedConcurrentRequests(t *testing.T) {
	b, _, _ := testCluster(t, 3, nil)
	ctx := context.Background()
	c := dialClient(t, b.Addr()) // pool size 1: all requests share one connection
	const workers = 16
	const opsEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				u := uint32(w*opsEach + i)
				want := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Write(ctx, u, []byte(want)); err != nil {
					errs <- err
					return
				}
				views, err := c.Read(ctx, []uint32{u})
				if err != nil {
					errs <- err
					return
				}
				if len(views) != 1 || len(views[0].Events) != 1 || string(views[0].Events[0]) != want {
					errs <- fmt.Errorf("user %d: got %q, want %q", u, views[0].Events, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != workers*opsEach {
		t.Errorf("writes = %d, want %d", st.Writes, workers*opsEach)
	}
}

func TestV2ContextCancellation(t *testing.T) {
	b, _, _ := testCluster(t, 1, nil)
	c := dialClient(t, b.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Read(ctx, []uint32{1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The connection stays usable for later requests.
	if _, err := c.Read(context.Background(), []uint32{1}); err != nil {
		t.Errorf("read after cancelled request: %v", err)
	}
}

func TestV2ReadBeyond64KTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("large read in -short mode")
	}
	b, _, _ := testCluster(t, 3, nil)
	ctx := context.Background()
	c := dialClient(t, b.Addr())
	for u := uint32(0); u < 10; u++ {
		if _, err := c.Write(ctx, u, []byte{byte(u)}); err != nil {
			t.Fatal(err)
		}
	}
	// More targets than a uint16 count could express, cycling 10 users.
	targets := make([]uint32, 0x10000+16)
	for i := range targets {
		targets[i] = uint32(i % 10)
	}
	views, err := c.Read(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != len(targets) {
		t.Fatalf("views = %d, want %d", len(views), len(targets))
	}
	for i, v := range views {
		if len(v.Events) != 1 || v.Events[0][0] != byte(targets[i]) {
			t.Fatalf("view %d = %+v, want event %d", i, v, targets[i])
		}
	}
}

func TestConcurrentReadsDoNotDuplicateReplicas(t *testing.T) {
	b, _, _ := testCluster(t, 3, func(cfg *BrokerConfig) {
		cfg.Preferred = 2
		cfg.MaxReplicas = 3
		cfg.PolicyEvery = time.Hour
		cfg.Policy.AdmissionEpsilon = 100
	})
	hot := userHomedOn(t, b, 0)
	if _, err := b.Write(hot, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	// 32 concurrent reads of the same user race through policy evaluation
	// and decision application; the preferred server must be appended at
	// most once.
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = hot
	}
	for round := 0; round < 4; round++ {
		if _, err := b.Read(targets); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(hot); got != 2 {
		t.Errorf("replicas = %d, want exactly 2 (home + preferred)", got)
	}
}

func TestDecodeReadResponseHostileCount(t *testing.T) {
	// A malformed respRead claiming 2^32-1 views in a 4-byte body must be
	// rejected without attempting a giant allocation.
	body := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)
	if _, _, err := decodeReadResponse(body); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
	// Same for a read request header.
	if _, err := decodeReadRequest(body); !errors.Is(err, ErrBadFrame) {
		t.Errorf("request err = %v, want ErrBadFrame", err)
	}
}

// --- fuzzing ---

func FuzzReadFrame(f *testing.F) {
	// Seed corpus: valid frames of both framings, truncations, oversizes.
	req, _ := encodeReadRequest([]uint32{42})
	req = telemetry.AppendTraceContext(req, telemetry.TraceContext{})
	var valid bytes.Buffer
	writeFrame(&valid, opRead, req)
	f.Add(valid.Bytes())
	var validMux bytes.Buffer
	writeMuxFrame(&validMux, opRead, 7, req)
	f.Add(validMux.Bytes())
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 9), opHello))
	var hello bytes.Buffer
	writeFrame(&hello, opHello, helloBody(wireVersion))
	f.Add(hello.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, body, err := readFrame(bytes.NewReader(data))
		if err == nil {
			// Whatever parsed must re-encode to the identical bytes.
			var buf bytes.Buffer
			if werr := writeFrame(&buf, msgType, body); werr != nil {
				t.Fatalf("re-encode failed: %v", werr)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("round trip mismatch: %x != %x", buf.Bytes(), data[:buf.Len()])
			}
		}
		if t2, id, body2, err2 := readMuxFrame(bytes.NewReader(data)); err2 == nil {
			var buf bytes.Buffer
			if werr := writeMuxFrame(&buf, t2, id, body2); werr != nil {
				t.Fatalf("muxed re-encode failed: %v", werr)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("muxed round trip mismatch")
			}
		}
	})
}

// FuzzMembershipInfo drives the respMembership body codec (an encoded
// membership view followed by one load per slot): whatever decodes must
// re-encode to the identical bytes, and hostile counts must be rejected
// before allocation.
func FuzzMembershipInfo(f *testing.F) {
	view := membership.Seed([]membership.ServerInfo{
		{Addr: "127.0.0.1:7001", Zone: 0, Rack: 1},
		{Addr: "127.0.0.1:7002", Zone: 1, Rack: 1, Capacity: 64},
	})
	view, _ = view.WithDraining("127.0.0.1:7002")
	f.Add(encodeMembershipInfo(MembershipInfo{View: view, Loads: []int64{3, 0}}))
	f.Add(membership.AppendView(nil, view)) // loads missing: rejected
	f.Add([]byte{})
	f.Add(make([]byte, 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := decodeMembershipInfo(data)
		if err != nil {
			return
		}
		if re := encodeMembershipInfo(info); !bytes.Equal(re, data) {
			t.Fatalf("membership info round trip mismatch")
		}
	})
}

func TestMembershipInfoRoundTrip(t *testing.T) {
	view := membership.Seed([]membership.ServerInfo{
		{Addr: "a:1", Zone: 0, Rack: 0},
		{Addr: "b:2", Zone: 1, Rack: 0},
	})
	view, err := view.WithAdded(membership.ServerInfo{Addr: "c:3", Zone: 2, Rack: 0})
	if err != nil {
		t.Fatal(err)
	}
	info := MembershipInfo{View: view, Loads: []int64{5, 2, 0}}
	got, err := decodeMembershipInfo(encodeMembershipInfo(info))
	if err != nil {
		t.Fatal(err)
	}
	if got.View.Epoch != 2 || len(got.View.Servers) != 3 {
		t.Fatalf("view mismatch: %+v", got.View)
	}
	for i, l := range info.Loads {
		if got.Loads[i] != l {
			t.Errorf("load %d = %d, want %d", i, got.Loads[i], l)
		}
	}
	// Truncated bodies — the loads included — are rejected, not mis-parsed.
	full := encodeMembershipInfo(info)
	for _, bad := range [][]byte{{1, 2, 3}, full[:len(full)-1], full[:len(full)-8], append(full, 0)} {
		if _, err := decodeMembershipInfo(bad); err == nil {
			t.Errorf("membership info of %d/%d bytes decoded", len(bad), len(full))
		}
	}
}

func FuzzDecodeView(f *testing.F) {
	f.Add(encodeView(nil, View{Version: 3, Events: [][]byte{[]byte("a"), []byte("bb")}}))
	f.Add([]byte{})
	f.Add(make([]byte, 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := decodeView(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		reencoded := encodeView(nil, v)
		if !bytes.Equal(reencoded, data[:len(data)-len(rest)]) {
			t.Fatalf("view round trip mismatch")
		}
	})
}

func TestPlacementEntryRoundTrip(t *testing.T) {
	buf := appendPlacementEntry(nil, 42, []int{3, 0, 7})
	e, rest, err := decodePlacementEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("trailing bytes: %d", len(rest))
	}
	if e.user != 42 || len(e.order) != 3 || e.order[0] != 3 || e.order[2] != 7 {
		t.Errorf("round trip mismatch: %+v", e)
	}
	if _, _, err := decodePlacementEntry([]byte{1, 2, 3}); err == nil {
		t.Error("short entry accepted")
	}
	// A count pointing past the body must be rejected, not allocated.
	bad := appendPlacementEntry(nil, 1, []int{1, 2})[:7]
	if _, _, err := decodePlacementEntry(bad); err == nil {
		t.Error("truncated order accepted")
	}
}

func TestPlacementTableRoundTrip(t *testing.T) {
	in := []placementEntry{
		{user: 1, order: []int{0}},
		{user: 9, order: []int{2, 1, 3}},
	}
	out, err := decodePlacementTable(encodePlacementTable(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].user != 9 || len(out[1].order) != 3 || out[1].order[1] != 1 {
		t.Errorf("round trip mismatch: %+v", out)
	}
	// Hostile count larger than the body can hold.
	hostile := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, err := decodePlacementTable(hostile); err == nil {
		t.Error("hostile table count accepted")
	}
}

func TestAccessReportRoundTrip(t *testing.T) {
	reads := []reportRead{{user: 5, server: 2, count: 17}, {user: 6, server: 0, count: 1}}
	writes := []reportWrite{{user: 5, count: 3}}
	sender, gotReads, gotWrites, err := decodeAccessReport(encodeAccessReport(2, reads, writes))
	if err != nil {
		t.Fatal(err)
	}
	if sender != 2 || len(gotReads) != 2 || len(gotWrites) != 1 {
		t.Fatalf("round trip mismatch: sender=%d reads=%v writes=%v", sender, gotReads, gotWrites)
	}
	if gotReads[0] != reads[0] || gotWrites[0] != writes[0] {
		t.Errorf("entries mismatch: %+v / %+v", gotReads, gotWrites)
	}
	// Empty report round-trips too.
	if _, r, w, err := decodeAccessReport(encodeAccessReport(0, nil, nil)); err != nil || len(r) != 0 || len(w) != 0 {
		t.Errorf("empty report: %v %v %v", r, w, err)
	}
	// Hostile read count must be rejected before allocation.
	hostile := binary.LittleEndian.AppendUint32(nil, 0)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<31)
	hostile = append(hostile, 0, 0, 0, 0)
	if _, _, _, err := decodeAccessReport(hostile); err == nil {
		t.Error("hostile report count accepted")
	}
}

func TestSyncWriteRoundTrip(t *testing.T) {
	body := encodeSyncWrite(7, 99, -5, []byte("event"), telemetry.TraceContext{})
	if len(body) != 24+len("event") {
		t.Errorf("unsampled sync write is %d bytes, want no trace trailer", len(body))
	}
	user, seq, at, payload, tc, err := decodeSyncWrite(body)
	if err != nil {
		t.Fatal(err)
	}
	if user != 7 || seq != 99 || at != -5 || string(payload) != "event" || tc.Sampled() {
		t.Errorf("round trip mismatch: %d %d %d %q %+v", user, seq, at, payload, tc)
	}
	if _, _, _, _, _, err := decodeSyncWrite([]byte("short")); err == nil {
		t.Error("short sync write accepted")
	}
}

func TestPeerHelloRoundTrip(t *testing.T) {
	sender, err := decodePeerHello(encodePeerHello(3))
	if err != nil || sender != 3 {
		t.Errorf("round trip: %d, %v", sender, err)
	}
	if _, err := decodePeerHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
}

// TestLogCursorsRoundTrip pushes per-origin cursor maps through the wire
// form, including the empty map a fresh broker reports.
func TestLogCursorsRoundTrip(t *testing.T) {
	for _, cursors := range []map[uint64]uint64{
		{},
		{0: 42},
		{0: 9, 1: 700, 2: 5},
	} {
		got, err := decodeLogCursors(encodeLogCursors(cursors))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cursors) {
			t.Fatalf("round trip of %v: %v", cursors, got)
		}
		for o, seq := range cursors {
			if got[o] != seq {
				t.Fatalf("cursor[%d] = %d, want %d", o, got[o], seq)
			}
		}
	}
	// Hostile counts and short bodies are rejected before allocation.
	for _, body := range [][]byte{nil, {1, 2}, {0xFF, 0xFF, 0xFF, 0xFF}} {
		if _, err := decodeLogCursors(body); err == nil {
			t.Errorf("malformed cursors body %v accepted", body)
		}
	}
}

// TestLogPullRoundTrip covers the pull request codec.
func TestLogPullRoundTrip(t *testing.T) {
	origin, after, max, err := decodeLogPull(encodeLogPull(2, 1234, 77))
	if err != nil || origin != 2 || after != 1234 || max != 77 {
		t.Fatalf("pull round trip = (%d, %d, %d, %v)", origin, after, max, err)
	}
	if _, _, _, err := decodeLogPull([]byte{1, 2, 3}); err == nil {
		t.Error("short pull body accepted")
	}
}

// TestLogRecordsRoundTrip pushes record batches through the wire form.
func TestLogRecordsRoundTrip(t *testing.T) {
	recs := []wal.Record{
		{Seq: 5, User: 1, At: 99, Payload: []byte("hello")},
		{Seq: 8, User: 2, At: 100, Payload: nil},
		{Seq: 11, User: 3, At: 101, Payload: bytes.Repeat([]byte("x"), 300)},
	}
	got, err := decodeLogRecords(encodeLogRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Seq != r.Seq || g.User != r.User || g.At != r.At || !bytes.Equal(g.Payload, r.Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, g, r)
		}
	}
	if got, err := decodeLogRecords(encodeLogRecords(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch round trip: %v, %v", got, err)
	}
	// A count the body cannot back, and a payload length past the end.
	for _, body := range [][]byte{
		nil,
		{0xFF, 0xFF, 0xFF, 0xFF},
		func() []byte {
			b := encodeLogRecords([]wal.Record{{Seq: 1, Payload: []byte("abc")}})
			return b[:len(b)-2] // truncate the payload
		}(),
	} {
		if _, err := decodeLogRecords(body); err == nil {
			t.Errorf("malformed records body accepted: %v", body)
		}
	}
}

// TestStatsRoundTrip pushes both respStats bodies through their codecs.
func TestStatsRoundTrip(t *testing.T) {
	bst := BrokerStats{Reads: 1, Writes: 2, Replicated: 3, Evicted: 4, Misses: 5, Migrated: 6,
		Checkpoints: 7, CompactedSegments: 8, CatchupRecords: 9, Epoch: 10, LeaseGrants: 11}
	if got, err := decodeBrokerStats(appendBrokerStats(nil, bst)); err != nil || got != bst {
		t.Errorf("broker stats = %+v, %v, want %+v", got, err, bst)
	}
	sst := ServerStats{Views: 1, Hits: 2, Misses: 3, Puts: 4, DirectReads: 5, DirectStale: 6}
	if got, err := decodeServerStats(appendServerStats(nil, sst)); err != nil || got != sst {
		t.Errorf("server stats = %+v, %v, want %+v", got, err, sst)
	}
}

// TestTruncatedBodiesRejected feeds every shortened (and one lengthened)
// copy of the fixed-layout bodies to their decoders: each must answer
// ErrBadFrame, never a zero-filled or partial decode.
func TestTruncatedBodiesRejected(t *testing.T) {
	tc := telemetry.TraceContext{TraceID: 1, SpanID: 2, Flags: telemetry.FlagSampled}
	view := View{Version: 4, Events: [][]byte{[]byte("ev")}}
	untraced := encodeSyncWrite(3, 4, 5, []byte("payload"), telemetry.TraceContext{})
	traced := encodeSyncWrite(3, 4, 5, []byte("payload"), tc)
	decoders := []struct {
		name   string
		full   []byte
		minCut int // shortest prefix tried; shorter ones are valid bodies
		decode func([]byte) error
	}{
		{"broker stats", appendBrokerStats(nil, BrokerStats{Reads: 1}), 0, func(b []byte) error {
			_, err := decodeBrokerStats(b)
			return err
		}},
		{"server stats", appendServerStats(nil, ServerStats{Views: 1}), 0, func(b []byte) error {
			_, err := decodeServerStats(b)
			return err
		}},
		{"put meta", appendPutMeta(nil, 1, 2), 0, func(b []byte) error {
			_, _, _, err := decodePutMeta(b)
			return err
		}},
		{"read response epoch", encodeReadResponse([]View{view}, 9), 0, func(b []byte) error {
			_, _, err := decodeReadResponse(b)
			return err
		}},
		{"write response epoch", encodeWriteResponse(7, 9), 0, func(b []byte) error {
			_, _, err := decodeWriteResponse(b)
			return err
		}},
		{"direct view epoch", encodeDirectView(view, 9), 0, func(b []byte) error {
			_, _, err := decodeDirectView(b)
			return err
		}},
		{"sync write", untraced, 0, func(b []byte) error {
			_, _, _, _, _, err := decodeSyncWrite(b)
			return err
		}},
		// Cut at len(untraced) the traced body is the valid unsampled one.
		{"traced sync write", traced, len(untraced) + 1, func(b []byte) error {
			_, _, _, _, _, err := decodeSyncWrite(b)
			return err
		}},
	}
	for _, d := range decoders {
		if err := d.decode(d.full); err != nil {
			t.Errorf("%s: full body rejected: %v", d.name, err)
		}
		for cut := d.minCut; cut < len(d.full); cut++ {
			if err := d.decode(d.full[:cut]); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: %d/%d bytes: err = %v, want ErrBadFrame", d.name, cut, len(d.full), err)
			}
		}
		if d.name == "put meta" {
			continue // the put's trace trailer follows; decodeTraceTrailer judges it
		}
		if err := d.decode(append(bytes.Clone(d.full), 0)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: one byte too long: err = %v, want ErrBadFrame", d.name, err)
		}
	}
}

// TestLeaseGrantRoundTrip pushes leases through the respLease codec,
// including the degenerate shapes a broker can legally emit.
func TestLeaseGrantRoundTrip(t *testing.T) {
	for _, l := range []Lease{
		{User: 7, Epoch: 3, Placement: 9, TTL: 5 * time.Second, Replicas: []LeaseReplica{
			{Slot: 0, Addr: "127.0.0.1:9001"},
			{Slot: 2, Addr: "127.0.0.1:9003"},
		}},
		{User: 0, Epoch: 1, Placement: 0, TTL: time.Millisecond, Replicas: []LeaseReplica{
			{Slot: 65535, Addr: ""},
		}},
		{User: 4294967295, Epoch: 18446744073709551615, TTL: 0},
	} {
		got, err := decodeLeaseGrant(appendLeaseGrant(nil, l))
		if err != nil {
			t.Fatalf("decode %+v: %v", l, err)
		}
		if got.User != l.User || got.Epoch != l.Epoch || got.Placement != l.Placement ||
			got.TTL != l.TTL || len(got.Replicas) != len(l.Replicas) {
			t.Fatalf("round trip %+v != %+v", got, l)
		}
		for i, r := range l.Replicas {
			if got.Replicas[i] != r {
				t.Errorf("replica %d = %+v, want %+v", i, got.Replicas[i], r)
			}
		}
	}
	// Short body, hostile replica count, truncated address.
	if _, err := decodeLeaseGrant(make([]byte, 25)); err == nil {
		t.Error("short lease body accepted")
	}
	hostile := make([]byte, 26)
	binary.LittleEndian.PutUint16(hostile[24:26], 65535)
	if _, err := decodeLeaseGrant(hostile); err == nil {
		t.Error("hostile replica count accepted")
	}
	full := appendLeaseGrant(nil, Lease{TTL: time.Second, Replicas: []LeaseReplica{{Slot: 1, Addr: "abc"}}})
	if _, err := decodeLeaseGrant(full[:len(full)-1]); err == nil {
		t.Error("truncated replica address accepted")
	}
}

// TestDirectGetRoundTrip covers the opDirectGet and respStaleRoute
// codecs: the two fencing-token carriers of the fast path.
func TestDirectGetRoundTrip(t *testing.T) {
	user, epoch, placement, err := decodeDirectGet(encodeDirectGet(42, 7, 19))
	if err != nil || user != 42 || epoch != 7 || placement != 19 {
		t.Fatalf("direct get round trip = (%d, %d, %d, %v)", user, epoch, placement, err)
	}
	if _, _, _, err := decodeDirectGet(make([]byte, 19)); err == nil {
		t.Error("short direct get accepted")
	}
	epoch, placement, err = decodeStaleRoute(appendStaleRoute(nil, 8, 20))
	if err != nil || epoch != 8 || placement != 20 {
		t.Fatalf("stale route round trip = (%d, %d, %v)", epoch, placement, err)
	}
	if _, _, err := decodeStaleRoute(make([]byte, 15)); err == nil {
		t.Error("short stale route accepted")
	}
}

// TestPutMetaTrailer pins the opPutView trailer discipline: the fencing
// metadata after the view is mandatory, and only a whole trace context
// may follow it.
func TestPutMetaTrailer(t *testing.T) {
	v := View{Version: 9, Events: [][]byte{[]byte("a"), []byte("bc")}}
	body := appendPutMeta(encodeView(nil, v), 5, 11)
	got, rest, err := decodeView(body)
	if err != nil || got.Version != 9 || len(got.Events) != 2 {
		t.Fatalf("view with trailer = %+v, %v", got, err)
	}
	epoch, placement, rest, err := decodePutMeta(rest)
	if err != nil || epoch != 5 || placement != 11 || len(rest) != 0 {
		t.Fatalf("trailer = (%d, %d, %d left, %v), want (5, 11, 0 left)", epoch, placement, len(rest), err)
	}
	// No metadata: a malformed put, not an unknown epoch.
	_, rest, err = decodeView(encodeView(nil, v))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodePutMeta(rest); !errors.Is(err, ErrBadFrame) {
		t.Errorf("absent trailer: err = %v, want ErrBadFrame", err)
	}
	// The trace trailer is all or nothing.
	tc := telemetry.TraceContext{TraceID: 3, SpanID: 4, Flags: telemetry.FlagSampled}
	trailer := appendTraceTrailer(nil, tc)
	if got, err := decodeTraceTrailer(trailer); err != nil || got != tc {
		t.Errorf("trace trailer = %+v, %v, want %+v", got, err, tc)
	}
	if n := len(appendTraceTrailer(nil, telemetry.TraceContext{})); n != 0 {
		t.Errorf("unsampled trace trailer is %d bytes, want 0", n)
	}
	if _, err := decodeTraceTrailer(trailer[:len(trailer)-1]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("cut trace trailer: err = %v, want ErrBadFrame", err)
	}
}

// FuzzDecodeLease drives the respLease codec: whatever decodes must
// re-encode to the identical prefix, and hostile replica counts must be
// rejected before allocation.
func FuzzDecodeLease(f *testing.F) {
	f.Add(appendLeaseGrant(nil, Lease{User: 1, Epoch: 2, Placement: 3, TTL: time.Second,
		Replicas: []LeaseReplica{{Slot: 0, Addr: "127.0.0.1:9001"}}}))
	f.Add(appendLeaseGrant(nil, Lease{TTL: time.Millisecond}))
	f.Add([]byte{})
	f.Add(make([]byte, 26))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := decodeLeaseGrant(data)
		if err != nil {
			return
		}
		re := appendLeaseGrant(nil, l)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("lease round trip mismatch: %x != %x", re, data[:len(re)])
		}
	})
}

// FuzzDecodeDirectGet drives the opDirectGet body codec.
func FuzzDecodeDirectGet(f *testing.F) {
	f.Add(encodeDirectGet(7, 1, 2))
	f.Add([]byte{})
	f.Add(make([]byte, 19))
	f.Fuzz(func(t *testing.T, data []byte) {
		user, epoch, placement, err := decodeDirectGet(data)
		if err != nil {
			return
		}
		re := encodeDirectGet(user, epoch, placement)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("direct get round trip mismatch")
		}
	})
}

// FuzzDecodeStaleRoute drives the respStaleRoute body codec.
func FuzzDecodeStaleRoute(f *testing.F) {
	f.Add(appendStaleRoute(nil, 3, 4))
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, placement, err := decodeStaleRoute(data)
		if err != nil {
			return
		}
		re := appendStaleRoute(nil, epoch, placement)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("stale route round trip mismatch")
		}
	})
}
