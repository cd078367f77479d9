package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"dynasore/pkg/dynasore"
)

// The deployment under test mirrors docker-compose.yml: three brokers,
// one per front-end cluster, each with its own checkpointed WAL, over four
// cache servers in two zones.
var (
	brokerPositions = []dynasore.Position{{Zone: 0, Rack: 0}, {Zone: 1, Rack: 0}, {Zone: 2, Rack: 0}}
	serverPositions = []dynasore.Position{{Zone: 0, Rack: 1}, {Zone: 0, Rack: 2}, {Zone: 1, Rack: 1}, {Zone: 1, Rack: 2}}
)

// Fixed deployment settings (see perfbench/README.md for the rationale).
const (
	// walSyncEvery 0 is the deployed flush policy: the WAL trusts the OS
	// page cache and fsyncs only on rotation and Close.
	walSyncEvery = 0
	// checkpointEvery is short enough for several checkpoints per run.
	checkpointEvery = 3 * time.Second
	// checkpointStagger separates the brokers' boots, and so their
	// checkpoint tickers: one broker checkpoints every second, in turn,
	// as brokers started at different times would, and any whole number
	// of seconds holds the same number of checkpoints.
	checkpointStagger = checkpointEvery / 3
	compactAfter      = 4
	policyEvery       = time.Second
	syncEvery         = time.Second
	viewCap           = 64
)

// levelDelay is the one-way delay a relay adds per hop, by the highest
// switch level the hop crosses.
var levelDelay = [numLevels]time.Duration{
	LevelRack:  100 * time.Microsecond,
	LevelInter: 300 * time.Microsecond,
	LevelTop:   1000 * time.Microsecond,
}

// deployment is one live cluster: cache servers, brokers, the relays
// between them, and one front-end client per broker, located at the
// broker's position and connected to it alone.
type deployment struct {
	net     *Network
	servers []*dynasore.CacheServer
	brokers []*dynasore.Broker
	clients []*dynasore.ClusterClient
	dirs    []string
	// bsAddrs[f][j] is the relay broker f (and its front-end's direct
	// reads) reach cache server j through.
	bsAddrs [][]string
	// staggered is how long boot waited between broker starts.
	staggered time.Duration
}

// boot starts the deployment with its broker data under root. Relays on
// broker -> server links listen on a distinct loopback address per
// broker (127.0.0.f+1), so each broker's membership names its own relays
// and a lease granted by broker f routes its front-end's direct reads
// from f's position.
func boot(ctx context.Context, root string, direct bool, poolSize int, stagger bool) (*deployment, error) {
	d := &deployment{net: NewNetwork(levelDelay)}
	fail := func(err error) (*deployment, error) {
		return nil, errors.Join(err, d.close())
	}
	for range serverPositions {
		s, err := dynasore.ListenCacheServer("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		d.servers = append(d.servers, s)
	}
	lns := make([]net.Listener, len(brokerPositions))
	closeListeners := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	peers := make([]dynasore.BrokerPeer, len(brokerPositions))
	for i, pos := range brokerPositions {
		for j, q := range brokerPositions {
			if i != j && levelOf(pos, q) != LevelTop {
				closeListeners()
				return fail(fmt.Errorf("brokers %d and %d share a zone; peer relays assume every broker pair crosses the top switch", i, j))
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return fail(err)
		}
		lns[i] = ln
		r, err := d.net.Listen("127.0.0.1", ln.Addr().String(), HopBB, LevelTop)
		if err != nil {
			closeListeners()
			return fail(err)
		}
		peers[i] = dynasore.BrokerPeer{Addr: r.Addr(), Pos: pos}
	}
	d.bsAddrs = make([][]string, len(brokerPositions))
	for f, bpos := range brokerPositions {
		host := fmt.Sprintf("127.0.0.%d", f+1)
		for j, spos := range serverPositions {
			r, err := d.net.Listen(host, d.servers[j].Addr(), HopBS, levelOf(bpos, spos))
			if err != nil {
				closeListeners()
				return fail(err)
			}
			d.bsAddrs[f] = append(d.bsAddrs[f], r.Addr())
		}
	}
	// Equal-length addresses make every follower's membership encode
	// above the leader's (127.0.0.1 sorts first), so the equal-epoch
	// tie-break never hands a follower the leader's relays.
	for f := range d.bsAddrs {
		for _, a := range d.bsAddrs[f] {
			if len(a) != len(d.bsAddrs[0][0]) {
				closeListeners()
				return fail(fmt.Errorf("relay addresses %s and %s differ in length", a, d.bsAddrs[0][0]))
			}
		}
	}
	for f, pos := range brokerPositions {
		dir := filepath.Join(root, fmt.Sprintf("broker%d", f))
		b, err := dynasore.ListenBroker(dynasore.BrokerConfig{
			Listener:         lns[f],
			CacheServerAddrs: d.bsAddrs[f],
			DataDir:          dir,
			ViewCap:          viewCap,
			Placement:        &dynasore.Placement{Broker: pos, Servers: serverPositions},
			PolicyEvery:      policyEvery,
			Peers:            peers,
			Self:             f,
			SyncEvery:        syncEvery,
			CheckpointEvery:  checkpointEvery,
			CompactAfter:     compactAfter,
			WALSyncEvery:     walSyncEvery,
		})
		if err != nil {
			closeListeners()
			return fail(fmt.Errorf("start broker %d: %w", f, err))
		}
		lns[f] = nil // owned by the broker now
		d.brokers = append(d.brokers, b)
		d.dirs = append(d.dirs, dir)
		if stagger && f < len(brokerPositions)-1 {
			time.Sleep(checkpointStagger)
			d.staggered += checkpointStagger
		}
	}
	for f, pos := range brokerPositions {
		r, err := d.net.Listen("127.0.0.1", d.brokers[f].Addr(), HopCB, levelOf(pos, pos))
		if err != nil {
			return fail(err)
		}
		opts := []dynasore.DialOption{dynasore.WithPoolSize(poolSize)}
		if direct {
			opts = append(opts, dynasore.WithDirectReads(0))
		}
		c, err := dynasore.DialCluster(ctx, []string{r.Addr()}, opts...)
		if err != nil {
			return fail(fmt.Errorf("dial front-end %d: %w", f, err))
		}
		d.clients = append(d.clients, c)
	}
	if err := d.checkRouting(); err != nil {
		return fail(err)
	}
	return d, nil
}

// checkRouting verifies that every broker still reaches each cache server
// through its own relay; otherwise the per-level byte counts would be
// charged to the wrong positions.
func (d *deployment) checkRouting() error {
	for f, b := range d.brokers {
		m := b.Membership()
		if len(m.Servers) != len(d.bsAddrs[f]) {
			return fmt.Errorf("broker %d sees %d cache servers, want %d", f, len(m.Servers), len(d.bsAddrs[f]))
		}
		for j, s := range m.Servers {
			if s.Addr != d.bsAddrs[f][j] {
				return fmt.Errorf("broker %d routes cache server %d via %s, not its own relay %s", f, j, s.Addr, d.bsAddrs[f][j])
			}
		}
	}
	return nil
}

// frontEnd is the client serving user's ops.
func (d *deployment) frontEnd(user uint32) *dynasore.ClusterClient {
	return d.clients[int(user)%len(d.clients)]
}

// leader returns the broker currently running the placement policy.
func (d *deployment) leader() *dynasore.Broker {
	for _, b := range d.brokers {
		if b.IsLeader() {
			return b
		}
	}
	return d.brokers[0]
}

// brokerStats sums the brokers' own counters.
func (d *deployment) brokerStats() dynasore.Stats {
	var sum dynasore.Stats
	for _, b := range d.brokers {
		st := b.Stats()
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Replicated += st.Replicated
		sum.Evicted += st.Evicted
		sum.Migrated += st.Migrated
		sum.Misses += st.Misses
		sum.Checkpoints += st.Checkpoints
		sum.CompactedSegments += st.CompactedSegments
		sum.LeaseGrants += st.LeaseGrants
	}
	return sum
}

// clientDirect sums the front-ends' direct-read outcomes.
func (d *deployment) clientDirect(ctx context.Context) (reads, stale int64, err error) {
	for _, c := range d.clients {
		st, err := c.Stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		reads += st.DirectReads
		stale += st.DirectStale
	}
	return reads, stale, nil
}

// views sums the views the cache servers hold.
func (d *deployment) views() int {
	n := 0
	for _, s := range d.servers {
		n += s.NumViews()
	}
	return n
}

// close stops clients, then brokers (each takes its parting checkpoint),
// then cache servers, then the relays.
func (d *deployment) close() error {
	var errs []error
	for _, c := range d.clients {
		errs = append(errs, c.Close())
	}
	for _, b := range d.brokers {
		errs = append(errs, b.Close())
	}
	for _, s := range d.servers {
		errs = append(errs, s.Close())
	}
	d.net.Close()
	d.clients, d.brokers, d.servers = nil, nil, nil
	return errors.Join(errs...)
}
