package main

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"dynasore/pkg/dynasore"
)

func v1Frame(typ uint8, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(body)))
	b = append(b, typ)
	return append(b, body...)
}

func v2Frame(typ uint8, id uint64, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(9+len(body)))
	b = append(b, typ)
	b = binary.LittleEndian.AppendUint64(b, id)
	return append(b, body...)
}

func helloFrame() []byte { return v1Frame(15, append(helloMagic[:], 3)) }

// TestFramerSplitAnywhere feeds a handshake plus ID-carrying frames in
// every possible two-way split, and one byte at a time: the framer must
// delimit the same frames, with the same types and IDs, regardless.
func TestFramerSplitAnywhere(t *testing.T) {
	var stream []byte
	stream = append(stream, helloFrame()...)
	stream = append(stream, v2Frame(opDirectGet, 7, []byte("abcdefgh"))...)
	stream = append(stream, v2Frame(opGetView, 1<<40, nil)...)
	stream = append(stream, v2Frame(5, 9, make([]byte, 300))...)
	want := []frame{
		{typ: 15, hello: true, size: 4 + 1 + 5},
		{typ: opDirectGet, id: 7, v2: true, size: 4 + 9 + 8},
		{typ: opGetView, id: 1 << 40, v2: true, size: 4 + 9},
		{typ: 5, id: 9, v2: true, size: 4 + 9 + 300},
	}
	check := func(t *testing.T, parts [][]byte) {
		t.Helper()
		f := framer{first: true}
		var got []frame
		for _, p := range parts {
			if err := f.feed(p, 0, func() bool { return false }, func(fr frame) { got = append(got, fr) }); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("got %d frames, want %d: %+v", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	for cut := 0; cut <= len(stream); cut++ {
		check(t, [][]byte{stream[:cut], stream[cut:]})
	}
	var bytes [][]byte
	for i := range stream {
		bytes = append(bytes, stream[i:i+1])
	}
	check(t, bytes)
}

// TestFramerResponseDirection checks that the response side of a
// handshaken connection reads its first frame without an ID and every
// later one with it, and that a plain connection never switches.
func TestFramerResponseDirection(t *testing.T) {
	stream := append(v1Frame(16, []byte{3}), v2Frame(8, 42, []byte("view"))...)
	f := framer{}
	var got []frame
	if err := f.feed(stream, 0, func() bool { return true }, func(fr frame) { got = append(got, fr) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].v2 || !got[1].v2 || got[1].id != 42 {
		t.Fatalf("handshaken response frames: %+v", got)
	}
	plain := append(v1Frame(8, []byte("x")), v1Frame(9, nil)...)
	f = framer{}
	got = nil
	if err := f.feed(plain, 0, func() bool { return false }, func(fr frame) { got = append(got, fr) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].v2 || got[1].v2 || got[1].typ != 9 {
		t.Fatalf("plain response frames: %+v", got)
	}
}

// TestFramerRejectsGarbage: a length prefix no frame can have is an error.
func TestFramerRejectsGarbage(t *testing.T) {
	f := framer{first: true}
	err := f.feed([]byte{0xff, 0xff, 0xff, 0xff, 1}, 0, func() bool { return false }, func(frame) {})
	if err == nil {
		t.Fatal("garbage length accepted")
	}
}

// echoServer answers every request frame with a response frame of
// respLen body bytes, speaking ID-carrying frames after a hello.
func echoServer(t *testing.T, respLen int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				v2 := false
				for {
					var hdr [4]byte
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
					if _, err := io.ReadFull(c, body); err != nil {
						return
					}
					var resp []byte
					switch {
					case !v2 && len(body) >= 5 && [4]byte(body[1:5]) == helloMagic:
						resp = v1Frame(16, []byte{3})
						v2 = true
					case v2:
						resp = v2Frame(8, binary.LittleEndian.Uint64(body[1:9]), make([]byte, respLen))
					default:
						resp = v1Frame(8, make([]byte, respLen))
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

func roundTrip(t *testing.T, c net.Conn, req []byte, respSize int) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, respSize)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestRelayAccounting scripts frame exchanges between known positions and
// checks exact byte counts per hop and per switch level, the delay per
// level crossed, span timestamps, and direct-read classification.
func TestRelayAccounting(t *testing.T) {
	delays := [numLevels]time.Duration{2 * time.Millisecond, 6 * time.Millisecond, 12 * time.Millisecond}
	n := NewNetwork(delays)
	defer n.Close()
	n.SetTracing(true)
	const respLen = 100
	target := echoServer(t, respLen)

	brokerPos := dynasore.Position{Zone: 0, Rack: 0}
	cases := []struct {
		hop    Hop
		server dynasore.Position
		level  Level
	}{
		{HopCB, dynasore.Position{Zone: 0, Rack: 0}, LevelRack},
		{HopBS, dynasore.Position{Zone: 0, Rack: 2}, LevelInter},
		{HopBB, dynasore.Position{Zone: 1, Rack: 0}, LevelTop},
	}
	req := v1Frame(opGetView, []byte{1, 2, 3, 4})
	respSize := 4 + 1 + respLen
	var wantHop [numHops]int64
	var wantLevel [numLevels]int64
	for _, tc := range cases {
		lvl := levelOf(brokerPos, tc.server)
		if lvl != tc.level {
			t.Fatalf("levelOf(%v, %v) = %v, want %v", brokerPos, tc.server, lvl, tc.level)
		}
		r, err := n.Listen("127.0.0.1", target, tc.hop, lvl)
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		const exchanges = 5
		var rtts []float64
		for i := 0; i < exchanges; i++ {
			rtt := roundTrip(t, c, req, respSize)
			if rtt < 2*delays[lvl] {
				t.Errorf("%s round trip %v, below twice the one-way delay %v", levelNames[lvl], rtt, delays[lvl])
			}
			rtts = append(rtts, float64(rtt))
		}
		// The median stays under three one-way delays: each direction is
		// delayed once, not once per chunk or per relay goroutine.
		if m := time.Duration(median(rtts)); m >= 3*delays[lvl] {
			t.Errorf("%s median round trip %v, want under %v", levelNames[lvl], m, 3*delays[lvl])
		}
		c.Close()
		per := int64(exchanges * (len(req) + respSize))
		wantHop[tc.hop] += per
		wantLevel[lvl] += per
	}

	// A client speaking the handshake and direct gets through a broker ->
	// server relay is a client -> server hop.
	r, err := n.Listen("127.0.0.1", target, HopBS, LevelTop)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, helloFrame(), 4+1+1)
	dreq := v2Frame(opDirectGet, 77, []byte{9, 9, 9, 9})
	roundTrip(t, c, dreq, 4+9+respLen)
	c.Close()
	csBytes := int64(len(helloFrame()) + 6 + len(dreq) + 4 + 9 + respLen)
	wantHop[HopCS] += csBytes
	wantLevel[LevelTop] += csBytes

	waitFor(t, func() bool { return n.Snapshot().Total() == wantLevel[0]+wantLevel[1]+wantLevel[2] })
	got := n.Snapshot()
	if got.HopBytes != wantHop {
		t.Errorf("hop bytes %v, want %v", got.HopBytes, wantHop)
	}
	if got.LevelBytes != wantLevel {
		t.Errorf("level bytes %v, want %v", got.LevelBytes, wantLevel)
	}

	waitFor(t, func() bool { return len(n.Spans()) == 3*5+2 })
	for _, s := range n.Spans() {
		d := delays[s.Level]
		if s.Fwd-s.Start < int64(d) || s.End-s.Back < int64(d) {
			t.Errorf("span %+v: each direction must wait at least %v", s, d)
		}
		if s.Back < s.Fwd || s.End-s.Start < 2*int64(d) {
			t.Errorf("span %+v out of order", s)
		}
		if s.Op == opDirectGet && (s.Hop != HopCS || s.RespBytes != 4+9+respLen) {
			t.Errorf("direct-get span %+v", s)
		}
	}
}

// TestRelayUnparseableConnection: garbage framing loses the connection's
// spans and is reported, but its bytes still count and traffic flows.
func TestRelayUnparseableConnection(t *testing.T) {
	n := NewNetwork([numLevels]time.Duration{})
	defer n.Close()
	n.SetTracing(true)
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	got := make(chan int, 1)
	go func() {
		c, err := sink.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- len(b)
	}()
	r, err := n.Listen("127.0.0.1", sink.Addr().String(), HopBB, LevelTop)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 'g', 'a', 'r', 'b', 'a', 'g', 'e'}
	if _, err := c.Write(garbage); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n := <-got; n != len(garbage) {
		t.Fatalf("target received %d bytes, want %d", n, len(garbage))
	}
	waitFor(t, func() bool { return n.Snapshot().Unparsed == 1 })
	s := n.Snapshot()
	if s.HopBytes[HopBB] != int64(len(garbage)) || s.LevelBytes[LevelTop] != int64(len(garbage)) {
		t.Fatalf("counters %+v", s)
	}
	if len(n.Spans()) != 0 {
		t.Fatalf("unparseable connection produced spans")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
