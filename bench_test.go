// Package repro_test holds one benchmark per table and figure of the
// paper's evaluation (§4). Each benchmark regenerates its experiment at a
// reduced scale and reports the headline metric of that table/figure via
// b.ReportMetric, so `go test -bench=.` reproduces the full results matrix.
package repro_test

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynasore/internal/experiments"
	"dynasore/internal/trace"
	"dynasore/pkg/dynasore"
)

// benchCfg is the reduced scale used for benchmarks: same cluster shape as
// the paper, fewer users so a full sweep stays in benchmark territory.
func benchCfg() experiments.Config {
	cfg := experiments.Default()
	cfg.Users = 800
	cfg.TreeM = 3
	cfg.TreeN = 3
	cfg.PerRack = 5
	cfg.FlatMachines = 45
	cfg.Extras = []float64{30, 100}
	return cfg
}

// BenchmarkTable1Datasets regenerates the dataset inventory (Table 1).
func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.LinksPerUser, "links/user:"+string(r.Dataset))
			}
		}
	}
}

// BenchmarkFigure2TraceVolume regenerates the real-trace daily volumes
// (Fig. 2) and reports the write:read ratio, which the paper's trace keeps
// above 1.
func BenchmarkFigure2TraceVolume(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		days, err := experiments.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var reads, writes int64
			for _, d := range days {
				reads += d.Reads
				writes += d.Writes
			}
			b.ReportMetric(float64(writes)/float64(reads), "writes/read")
		}
	}
}

// benchFigure3 runs one Fig. 3 subplot and reports the normalized
// top-switch traffic of each system at 30% extra memory.
func benchFigure3(b *testing.B, ds experiments.Dataset, flat bool) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(cfg, ds, flat)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pt := res.Points[0] // 30% extra
			b.ReportMetric(pt.Traffic[experiments.SysSPAR], "spar@30")
			b.ReportMetric(pt.Traffic[experiments.SysDynRandom], "dyn-random@30")
			b.ReportMetric(pt.Traffic[experiments.SysDynMetis], "dyn-metis@30")
			if !flat {
				b.ReportMetric(pt.Traffic[experiments.SysDynHMetis], "dyn-hmetis@30")
				b.ReportMetric(res.StaticHMetis, "static-hmetis")
			}
			b.ReportMetric(res.StaticMetis, "static-metis")
		}
	}
}

// BenchmarkFigure3aTwitterTree regenerates Fig. 3a.
func BenchmarkFigure3aTwitterTree(b *testing.B) { benchFigure3(b, experiments.Twitter, false) }

// BenchmarkFigure3bLiveJournalTree regenerates Fig. 3b.
func BenchmarkFigure3bLiveJournalTree(b *testing.B) { benchFigure3(b, experiments.LiveJournal, false) }

// BenchmarkFigure3cFacebookTree regenerates Fig. 3c.
func BenchmarkFigure3cFacebookTree(b *testing.B) { benchFigure3(b, experiments.Facebook, false) }

// BenchmarkFigure3dFacebookFlat regenerates Fig. 3d (flat topology, §4.5).
func BenchmarkFigure3dFacebookFlat(b *testing.B) { benchFigure3(b, experiments.Facebook, true) }

// benchSwitchTraffic runs the per-level switch-traffic table at the given
// budget and reports DynaSoRe's and SPAR's normalized top-switch traffic
// averaged over the three datasets.
func benchSwitchTraffic(b *testing.B, extra float64) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SwitchTraffic(cfg, extra)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var dynTop, sparTop float64
			for _, r := range rows {
				if r.System == experiments.SysDynHMetis {
					dynTop += r.Top / 3
				} else {
					sparTop += r.Top / 3
				}
			}
			b.ReportMetric(dynTop, "dynasore-top")
			b.ReportMetric(sparTop, "spar-top")
		}
	}
}

// BenchmarkTable2SwitchTraffic30 regenerates Table 2 (30% extra memory).
func BenchmarkTable2SwitchTraffic30(b *testing.B) { benchSwitchTraffic(b, 30) }

// BenchmarkTable3SwitchTraffic150 regenerates Table 3 (150% extra memory).
func BenchmarkTable3SwitchTraffic150(b *testing.B) { benchSwitchTraffic(b, 150) }

// BenchmarkFigure4RealTraffic regenerates Fig. 4 and reports DynaSoRe's
// mean normalized daily traffic over the second week (post-convergence).
func BenchmarkFigure4RealTraffic(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		days, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var dyn, spar float64
			for _, d := range days[7:] {
				dyn += d.Traffic[experiments.SysDynMetis] / 7
				spar += d.Traffic[experiments.SysSPAR] / 7
			}
			b.ReportMetric(dyn, "dyn-metis-week2")
			b.ReportMetric(spar, "spar-week2")
		}
	}
}

// BenchmarkFigure5FlashEvent regenerates Fig. 5 and reports the replica
// peak-to-baseline ratio of the hot view.
func BenchmarkFigure5FlashEvent(b *testing.B) {
	cfg := benchCfg()
	fc := experiments.DefaultFig5()
	fc.Days = 5
	fc.StartDay = 1
	fc.EndDay = 3
	fc.Repetitions = 2
	fc.Followers = 80
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure5(cfg, fc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var pre, peak float64
			var nPre int
			for _, p := range points {
				day := p.AtSeconds / trace.SecondsPerDay
				if day < int64(fc.StartDay) {
					pre += p.Replicas
					nPre++
				} else if day < int64(fc.EndDay) && p.Replicas > peak {
					peak = p.Replicas
				}
			}
			b.ReportMetric(pre/float64(nPre), "replicas-before")
			b.ReportMetric(peak, "replicas-peak")
		}
	}
}

// benchFigure6 regenerates one convergence plot and reports the ratio of
// final-quarter to first-quarter application traffic (should be well below
// 1) and the final system-traffic share.
func benchFigure6(b *testing.B, realistic bool) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure6(cfg, realistic)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(points) >= 8 {
			q := len(points) / 4
			var early, late, lateSys float64
			for _, p := range points[:q] {
				early += p.App[experiments.SysDynRandom]
			}
			for _, p := range points[len(points)-q:] {
				late += p.App[experiments.SysDynRandom]
				lateSys += p.Sys[experiments.SysDynRandom]
			}
			b.ReportMetric(late/early, "late/early-app")
			b.ReportMetric(lateSys/float64(q), "late-sys")
		}
	}
}

// BenchmarkFigure6aConvergenceSynthetic regenerates Fig. 6a.
func BenchmarkFigure6aConvergenceSynthetic(b *testing.B) { benchFigure6(b, false) }

// BenchmarkFigure6bConvergenceReal regenerates Fig. 6b.
func BenchmarkFigure6bConvergenceReal(b *testing.B) { benchFigure6(b, true) }

// clientConcurrency is the worker count of the wire-client benchmarks: 16
// concurrent callers against a single broker.
const clientConcurrency = 16

// clientRTTDelay is the one-way propagation delay the latency proxy adds
// between client and broker, emulating an intra-datacenter network path.
// On loopback the whole cluster shares the local CPU, so without it the
// benchmarks measure encode/decode cost rather than the effect of request
// pipelining and of skipped network hops — the things they exist to show.
const clientRTTDelay = 500 * time.Microsecond

// latencyProxy forwards TCP bytes to backendAddr, delivering each chunk
// clientRTTDelay after it arrived (order-preserving, unbounded bandwidth).
// It returns the proxy's listen address.
func latencyProxy(b *testing.B, backendAddr string) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			backend, err := net.Dial("tcp", backendAddr)
			if err != nil {
				conn.Close()
				continue
			}
			go delayPipe(conn, backend)
			go delayPipe(backend, conn)
		}
	}()
	return ln.Addr().String()
}

// delayPipe copies src to dst, holding each chunk for clientRTTDelay while
// later chunks may already be in flight behind it.
func delayPipe(src, dst net.Conn) {
	type chunk struct {
		data []byte
		due  time.Time
	}
	ch := make(chan chunk, 4096)
	done := make(chan struct{})
	go func() {
		defer dst.Close()
		defer close(done)
		for c := range ch {
			time.Sleep(time.Until(c.due))
			if _, err := dst.Write(c.data); err != nil {
				return
			}
		}
	}()
	defer close(ch)
	defer src.Close()
	for {
		buf := make([]byte, 64<<10)
		n, err := src.Read(buf)
		if n > 0 {
			select {
			case ch <- chunk{data: buf[:n], due: time.Now().Add(clientRTTDelay)}:
			case <-done:
				return // writer died; don't block on a full channel
			}
		}
		if err != nil {
			return
		}
	}
}

// benchClientCluster starts an in-process cluster (3 cache servers, one
// broker) and seeds 100 single-event views.
func benchClientCluster(b *testing.B) *dynasore.Engine {
	b.Helper()
	e, err := dynasore.Open(dynasore.EngineConfig{
		CacheServers: 3,
		DataDir:      b.TempDir(),
		Preferred:    -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	ctx := context.Background()
	for u := uint32(0); u < 100; u++ {
		if _, err := e.Write(ctx, u, []byte("seed event")); err != nil {
			b.Fatal(err)
		}
	}
	// Warm every cache entry so the benchmark measures the hit path.
	targets := make([]uint32, 100)
	for i := range targets {
		targets[i] = uint32(i)
	}
	if _, err := e.Read(ctx, targets); err != nil {
		b.Fatal(err)
	}
	return e
}

// benchConcurrentReads drives b.N single-user reads through readOne from
// clientConcurrency workers sharing one client.
func benchConcurrentReads(b *testing.B, readOne func(user uint32) error) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clientConcurrency)
	b.ResetTimer()
	for w := 0; w < clientConcurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if err := readOne(uint32(i % 100)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

// BenchmarkClientPipelined drives 16 workers' single-user reads through
// one public pkg/dynasore client behind the latency proxy: request IDs
// multiplex the workers' requests over a small connection pool, so their
// round trips overlap. A client serializing one request per connection
// took 2.47 ms/op on this workload (2-vCPU Xeon, go1.24), about 12x this
// benchmark's 0.20 ms/op.
func BenchmarkClientPipelined(b *testing.B) {
	e := benchClientCluster(b)
	ctx := context.Background()
	c, err := dynasore.Dial(ctx, latencyProxy(b, e.Addr()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	benchConcurrentReads(b, func(user uint32) error {
		_, err := c.Read(ctx, []uint32{user})
		return err
	})
}

// benchProxiedCluster starts 3 cache servers and one broker with the
// latency proxy on EVERY hop: the broker knows its cache servers only by
// their proxied addresses, so broker-proxied reads pay two emulated round
// trips (client → broker, broker → cache server) while the leases the
// broker mints route direct readers through one. This is the topology the
// direct-read fast path exists for; on an unproxied loopback cluster both
// paths would just measure codec cost. Returns the broker's proxied,
// client-facing address; 100 single-event views are seeded and warm.
func benchProxiedCluster(b *testing.B) string {
	b.Helper()
	var serverAddrs []string
	for i := 0; i < 3; i++ {
		s, err := dynasore.ListenCacheServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		serverAddrs = append(serverAddrs, latencyProxy(b, s.Addr()))
	}
	br, err := dynasore.ListenBroker(dynasore.BrokerConfig{
		Addr:             "127.0.0.1:0",
		CacheServerAddrs: serverAddrs,
		DataDir:          b.TempDir(),
		Preferred:        -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { br.Close() })
	// Seed over the unproxied broker address — setup cost, not measured.
	ctx := context.Background()
	c, err := dynasore.Dial(ctx, br.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	targets := make([]uint32, 100)
	for u := uint32(0); u < 100; u++ {
		if _, err := c.Write(ctx, u, []byte("seed event")); err != nil {
			b.Fatal(err)
		}
		targets[u] = u
	}
	if _, err := c.Read(ctx, targets); err != nil {
		b.Fatal(err)
	}
	return latencyProxy(b, br.Addr())
}

// BenchmarkBrokerProxiedRead is the two-hop baseline on the proxied
// topology: every read goes client → broker → cache server, paying both
// emulated network legs.
func BenchmarkBrokerProxiedRead(b *testing.B) {
	addr := benchProxiedCluster(b)
	ctx := context.Background()
	c, err := dynasore.DialCluster(ctx, []string{addr})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	benchConcurrentReads(b, func(user uint32) error {
		_, err := c.Read(ctx, []uint32{user})
		return err
	})
}

// BenchmarkDirectRead is the same workload with the direct-read fast
// path: after leases warm up, reads go client → cache server in one
// emulated hop, cutting the broker out of the hot read path.
func BenchmarkDirectRead(b *testing.B) {
	addr := benchProxiedCluster(b)
	ctx := context.Background()
	c, err := dynasore.DialCluster(ctx, []string{addr}, dynasore.WithDirectReads(0))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	// Warm the lease cache: keep sweeping until a whole pass over the
	// working set is served directly.
	targets := make([]uint32, 100)
	for i := range targets {
		targets[i] = uint32(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		before, err := c.Stats(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(ctx, targets); err != nil {
			b.Fatal(err)
		}
		after, err := c.Stats(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if after.DirectReads-before.DirectReads == int64(len(targets)) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("leases never warmed: %+v", after)
		}
		time.Sleep(10 * time.Millisecond)
	}
	start, err := c.Stats(ctx)
	if err != nil {
		b.Fatal(err)
	}
	benchConcurrentReads(b, func(user uint32) error {
		_, err := c.Read(ctx, []uint32{user})
		return err
	})
	b.StopTimer()
	end, err := c.Stats(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if total := end.DirectReads - start.DirectReads; total > 0 && b.N > 0 {
		b.ReportMetric(100*float64(total)/float64(b.N), "direct-hit-%")
	}
}
