package main

import (
	"sort"
)

// traceReport is the per-layer breakdown of a traced sequential phase.
// Spans nest by time: ops run one at a time, so a relay span inside a
// client span's interval belongs to that op. cb and cs spans are the
// client's children; bs and bb spans inside a cb span are the broker's.
// A layer's self time is its span minus the union of its children.
type traceReport struct {
	reads, writes int

	clientReadSpan, clientReadSelf   float64 // µs, means over reads
	clientWriteSpan, clientWriteSelf float64
	clientReadWire, clientWriteWire  float64 // µs covered by wire children

	brokerReadSelf, brokerWriteSelf float64 // µs, means over cb spans
	brokerReadSpan, brokerWriteSpan float64
	brokerServerWait                float64 // µs of bs children per cb span

	serverGet, serverDirectGet float64 // µs callee time, delay excluded

	bsFramesPerRead, csFramesPerRead  float64
	bsFramesPerWrite, bsBytesPerWrite float64

	// orphans are relay spans inside an op that no cb span encloses
	// (background work such as policy pushes and peer pings).
	orphans int
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs.
func covered(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) add(x float64) { m.sum += x; m.n++ }
func (m *meanAcc) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

const nsPerUs = 1e3

func analyzeTrace(ops []clientSpan, spans []Span) traceReport {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var rep traceReport
	var cReadSpan, cReadSelf, cWriteSpan, cWriteSelf, cReadWire, cWriteWire meanAcc
	var bReadSelf, bWriteSelf, bReadSpan, bWriteSpan, bWait meanAcc
	var get, dget meanAcc
	var bsReadFrames, csReadFrames, bsWriteFrames, bsWriteBytes float64

	for _, s := range spans {
		switch {
		case s.Hop == HopBS && s.Op == opGetView:
			get.add(float64(s.Back-s.Fwd) / nsPerUs)
		case s.Hop == HopCS && s.Op == opDirectGet:
			dget.add(float64(s.Back-s.Fwd) / nsPerUs)
		}
	}

	for _, op := range ops {
		if op.write {
			rep.writes++
		} else {
			rep.reads++
		}
		i := sort.Search(len(spans), func(i int) bool { return spans[i].Start >= op.start })
		var inside []Span
		for ; i < len(spans) && spans[i].Start <= op.end; i++ {
			if spans[i].End <= op.end {
				inside = append(inside, spans[i])
			}
		}
		var clientKids []interval
		for _, s := range inside {
			if s.Hop != HopCB && s.Hop != HopCS {
				continue
			}
			clientKids = append(clientKids, interval{s.Start, s.End})
			if s.Hop == HopCS {
				if !op.write {
					csReadFrames += 2
				}
				continue
			}
			var brokerKids, serverKids []interval
			for _, c := range inside {
				if (c.Hop != HopBS && c.Hop != HopBB) || c.Start < s.Start || c.End > s.End {
					continue
				}
				brokerKids = append(brokerKids, interval{c.Start, c.End})
				if c.Hop != HopBS {
					continue
				}
				serverKids = append(serverKids, interval{c.Start, c.End})
				if op.write {
					bsWriteFrames += 2
					bsWriteBytes += float64(c.ReqBytes + c.RespBytes)
				} else {
					bsReadFrames += 2
				}
			}
			dur := float64(s.End - s.Start)
			self := (dur - float64(covered(brokerKids))) / nsPerUs
			if op.write {
				bWriteSelf.add(self)
				bWriteSpan.add(dur / nsPerUs)
			} else {
				bReadSelf.add(self)
				bReadSpan.add(dur / nsPerUs)
			}
			bWait.add(float64(covered(serverKids)) / nsPerUs)
		}
		for _, c := range inside {
			if c.Hop != HopBS && c.Hop != HopBB {
				continue
			}
			enclosed := false
			for _, s := range inside {
				if s.Hop == HopCB && c.Start >= s.Start && c.End <= s.End {
					enclosed = true
					break
				}
			}
			if !enclosed {
				rep.orphans++
			}
		}
		dur := float64(op.end - op.start)
		wire := float64(covered(clientKids))
		if op.write {
			cWriteSpan.add(dur / nsPerUs)
			cWriteSelf.add((dur - wire) / nsPerUs)
			cWriteWire.add(wire / nsPerUs)
		} else {
			cReadSpan.add(dur / nsPerUs)
			cReadSelf.add((dur - wire) / nsPerUs)
			cReadWire.add(wire / nsPerUs)
		}
	}

	rep.clientReadSpan, rep.clientReadSelf, rep.clientReadWire = cReadSpan.mean(), cReadSelf.mean(), cReadWire.mean()
	rep.clientWriteSpan, rep.clientWriteSelf, rep.clientWriteWire = cWriteSpan.mean(), cWriteSelf.mean(), cWriteWire.mean()
	rep.brokerReadSelf, rep.brokerWriteSelf = bReadSelf.mean(), bWriteSelf.mean()
	rep.brokerReadSpan, rep.brokerWriteSpan = bReadSpan.mean(), bWriteSpan.mean()
	rep.brokerServerWait = bWait.mean()
	rep.serverGet, rep.serverDirectGet = get.mean(), dget.mean()
	if rep.reads > 0 {
		rep.bsFramesPerRead = bsReadFrames / float64(rep.reads)
		rep.csFramesPerRead = csReadFrames / float64(rep.reads)
	}
	if rep.writes > 0 {
		rep.bsFramesPerWrite = bsWriteFrames / float64(rep.writes)
		rep.bsBytesPerWrite = bsWriteBytes / float64(rep.writes)
	}
	return rep
}
