package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dynasore/internal/socialgraph"
)

// Workload is one traffic mix the benchmark drives through the cluster.
// Every field is fixed here so that a change to the system under test
// can never silently change the load it is judged under.
type Workload struct {
	Name string
	// Graph names the internal/socialgraph preset: "facebook" (undirected,
	// ~15.7 friendships per user, community structure) or "twitter"
	// (directed, ~2.9 follows per user, heavy in-degree tail).
	Graph string
	Users int
	// WriteFrac is the share of ops that post; the rest read.
	WriteFrac    float64
	PayloadBytes int
	// FanoutCap caps a feed read at the reader's first FanoutCap
	// followees; zero reads only the reader's own timeline (L = 1).
	FanoutCap int
	// Direct dials the front-ends WithDirectReads (the gateway's default
	// path); otherwise every read goes through the broker.
	Direct bool
	// Zipf is the exponent of the rank-frequency law that picks which
	// user acts next, over a seeded permutation of the users.
	Zipf float64
	// Rate is the open loop's offered load in ops/s, frozen well below
	// half of peak_ops_s as measured when the benchmark was defined
	// (README.md).
	Rate float64
}

var workloads = map[string]Workload{
	"feed-broker": {
		Name: "feed-broker", Graph: "facebook", Users: 16384,
		WriteFrac: 0.10, PayloadBytes: 128, FanoutCap: 64, Zipf: 0.7, Rate: 100,
	},
	"feed-direct": {
		Name: "feed-direct", Graph: "facebook", Users: 16384,
		WriteFrac: 0.10, PayloadBytes: 128, FanoutCap: 64, Zipf: 0.7, Rate: 60,
		Direct: true,
	},
	"post-storm": {
		Name: "post-storm", Graph: "twitter", Users: 8192,
		WriteFrac: 0.60, PayloadBytes: 1024, FanoutCap: 0, Zipf: 0.5, Rate: 800,
	},
}

// streamLen is the number of ops generated per plan; phases walk the
// stream cyclically.
const streamLen = 1 << 18

// op is one generated operation: user posts, or user reads its feed.
type op struct {
	user  uint32
	write bool
}

// plan is a workload's generated input: the read targets of every user
// and the op stream, both functions of the seed alone.
type plan struct {
	w     Workload
	feeds [][]uint32
	ops   []op
	// hot are the users whose views the stream reads most: the top 1 %.
	hot         []uint32
	fingerprint string
}

func makePlan(w Workload, seed int64) (*plan, error) {
	var g *socialgraph.Graph
	var err error
	switch w.Graph {
	case "facebook":
		g, err = socialgraph.Facebook(w.Users, seed)
	case "twitter":
		g, err = socialgraph.Twitter(w.Users, seed)
	default:
		err = fmt.Errorf("unknown graph %q", w.Graph)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s graph: %w", w.Graph, err)
	}
	p := &plan{w: w, feeds: make([][]uint32, w.Users)}
	for u := range p.feeds {
		var targets []uint32
		if w.FanoutCap > 0 {
			for _, v := range g.Following(socialgraph.UserID(u)) {
				if len(targets) == w.FanoutCap {
					break
				}
				targets = append(targets, uint32(v))
			}
		}
		if len(targets) == 0 {
			targets = []uint32{uint32(u)} // own timeline
		}
		p.feeds[u] = targets
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(w.Users)
	cdf := make([]float64, w.Users)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -w.Zipf)
		cdf[r] = sum
	}
	p.ops = make([]op, streamLen)
	for i := range p.ops {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		p.ops[i] = op{user: uint32(perm[min(r, w.Users-1)]), write: rng.Float64() < w.WriteFrac}
	}

	reads := make([]int, w.Users)
	for _, o := range p.ops {
		if !o.write {
			for _, t := range p.feeds[o.user] {
				reads[t]++
			}
		}
	}
	byReads := make([]uint32, w.Users)
	for u := range byReads {
		byReads[u] = uint32(u)
	}
	sort.SliceStable(byReads, func(i, j int) bool { return reads[byReads[i]] > reads[byReads[j]] })
	p.hot = byReads[:max(1, w.Users/100)]

	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", w)
	var buf []byte
	for _, f := range p.feeds {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(f)))
		for _, t := range f {
			buf = binary.LittleEndian.AppendUint32(buf, t)
		}
		h.Write(buf)
	}
	for _, o := range p.ops {
		buf = binary.LittleEndian.AppendUint32(buf[:0], o.user)
		if o.write {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		h.Write(buf)
	}
	p.fingerprint = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}

// meanTargets is the mean number of views one read of the stream asks for.
func (p *plan) meanTargets() float64 {
	sum, n := 0, 0
	for _, o := range p.ops {
		if !o.write {
			sum += len(p.feeds[o.user])
			n++
		}
	}
	return float64(sum) / float64(max(n, 1))
}
