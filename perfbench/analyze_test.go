package main

import "testing"

// TestAnalyzeTraceNesting builds one read and one write by hand and
// checks the nesting rules and self times: cb/cs spans are the client's
// children, bs/bb spans inside a cb span the broker's, and spans outside
// every op are ignored.
func TestAnalyzeTraceNesting(t *testing.T) {
	us := func(x int64) int64 { return x * 1000 }
	ops := []clientSpan{
		{write: false, start: us(0), end: us(1000)},
		{write: true, start: us(2000), end: us(2500)},
	}
	spans := []Span{
		// read: a broker call with two overlapping gets and a peer call,
		// plus one direct get
		{Hop: HopCB, Start: us(100), End: us(700)},
		{Hop: HopBS, Op: opGetView, Start: us(200), Fwd: us(250), Back: us(300), End: us(400), ReqBytes: 10, RespBytes: 90},
		{Hop: HopBS, Op: opGetView, Start: us(300), Fwd: us(350), Back: us(450), End: us(500), ReqBytes: 10, RespBytes: 90},
		{Hop: HopBB, Start: us(550), End: us(650)},
		{Hop: HopCS, Op: opDirectGet, Start: us(750), Fwd: us(760), Back: us(800), End: us(900)},
		// write: a broker call with one put
		{Hop: HopCB, Start: us(2100), End: us(2400)},
		{Hop: HopBS, Op: 2, Start: us(2200), End: us(2300), ReqBytes: 300, RespBytes: 20},
		// background span between the ops
		{Hop: HopBS, Op: opGetView, Start: us(1200), Fwd: us(1250), Back: us(1260), End: us(1300)},
	}
	rep := analyzeTrace(ops, spans)
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("client read span", rep.clientReadSpan, 1000)
	check("client read wire", rep.clientReadWire, 600+150)
	check("client read self", rep.clientReadSelf, 1000-750)
	check("client write self", rep.clientWriteSelf, 500-300)
	check("broker read self", rep.brokerReadSelf, 600-(300+100))
	check("broker write self", rep.brokerWriteSelf, 300-100)
	check("broker server wait", rep.brokerServerWait, (300+100)/2.0)
	check("server get", rep.serverGet, (50+100+10)/3.0)
	check("server direct get", rep.serverDirectGet, 40)
	check("bs frames per read", rep.bsFramesPerRead, 4)
	check("cs frames per read", rep.csFramesPerRead, 2)
	check("bs frames per write", rep.bsFramesPerWrite, 2)
	check("bs bytes per write", rep.bsBytesPerWrite, 320)
	if rep.orphans != 0 {
		t.Errorf("orphans = %d, want 0", rep.orphans)
	}
}
