package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/viewpolicy"
)

// TestElasticMembershipAcceptance is the PR's acceptance scenario: a
// 3-broker / 2-server cluster under concurrent traffic grows to 4 cache
// servers (homes rebalance within the rendezvous bound and Migrated
// advances), drains one server to zero replicas with no failed reads,
// removes it, and a killed broker comes back at the latest membership
// epoch straight from its WAL/checkpoint.
func TestElasticMembershipAcceptance(t *testing.T) {
	ctx := context.Background()
	newCacheServer := func() *Server {
		t.Helper()
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	servers := []*Server{newCacheServer(), newCacheServer()}
	addrs := []string{servers[0].Addr(), servers[1].Addr()}

	const nBrokers = 3
	lns := make([]net.Listener, nBrokers)
	peers := make([]PeerInfo, nBrokers)
	dirs := make([]string, nBrokers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = PeerInfo{Addr: ln.Addr().String(), Pos: Position{Zone: i, Rack: 0}}
		dirs[i] = t.TempDir()
	}
	mkBroker := func(i int, ln net.Listener) *Broker {
		t.Helper()
		b, err := NewBroker(BrokerConfig{
			Listener:        ln,
			ServerAddrs:     addrs,
			Placement:       &Placement{Broker: peers[i].Pos, Servers: []Position{{Zone: 0, Rack: 1}, {Zone: 1, Rack: 1}}},
			DataDir:         dirs[i], // per-broker WAL: membership must replicate between logs
			Peers:           peers,
			Self:            i,
			SyncEvery:       50 * time.Millisecond,
			PolicyEvery:     100 * time.Millisecond,
			CheckpointEvery: 200 * time.Millisecond,
			Policy:          viewpolicyConfigQuiet(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	brokers := make([]*Broker, nBrokers)
	for i := range brokers {
		brokers[i] = mkBroker(i, lns[i])
	}
	closed := make([]atomic.Bool, nBrokers)
	closeBroker := func(i int) {
		if !closed[i].Swap(true) {
			brokers[i].Close()
		}
	}
	t.Cleanup(func() {
		for i := range brokers {
			closeBroker(i)
		}
	})

	// Seed traffic through the leader so every user has a placement entry
	// it can rebalance.
	const users = 200
	for u := uint32(0); u < users; u++ {
		if _, err := brokers[0].Write(u, []byte(fmt.Sprintf("seed-%d", u))); err != nil {
			t.Fatal(err)
		}
		if _, err := brokers[0].ReadOne(u); err != nil {
			t.Fatal(err)
		}
	}
	homesBefore := make([]int, users)
	for u := range homesBefore {
		homesBefore[u] = brokers[0].HomeOf(uint32(u))
	}

	// Concurrent traffic through every broker for the whole scenario;
	// every read must succeed and see the user's seed event.
	var (
		stopTraffic = make(chan struct{})
		trafficWG   sync.WaitGroup
		readErrs    atomic.Int64
		emptyReads  atomic.Int64
	)
	for i := range brokers {
		trafficWG.Add(1)
		go func(i int) {
			defer trafficWG.Done()
			for u := uint32(0); ; u = (u + 1) % users {
				select {
				case <-stopTraffic:
					return
				default:
				}
				if closed[i].Load() {
					return
				}
				v, err := brokers[i].ReadOne(u)
				if err != nil {
					readErrs.Add(1)
				} else if len(v.Events) == 0 {
					emptyReads.Add(1)
				}
				if u%5 == 0 {
					_, _ = brokers[i].Write(u, []byte("traffic"))
				}
			}
		}(i)
	}

	// Grow 2 -> 4: add both servers through a FOLLOWER broker, exercising
	// the leader-forwarding path of the admin protocol.
	added := []*Server{newCacheServer(), newCacheServer()}
	follower, err := DialClient(ctx, brokers[1].Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for i, s := range added {
		info, err := follower.AddServer(ctx, membership.ServerInfo{Addr: s.Addr(), Zone: 2 + i, Rack: 1})
		if err != nil {
			t.Fatalf("AddServer via follower: %v", err)
		}
		if want := uint64(2 + i); info.View.Epoch != want {
			t.Fatalf("epoch after add %d = %d, want %d", i, info.View.Epoch, want)
		}
	}

	// Every broker converges on epoch 3 (delta broadcast or anti-entropy).
	waitFor(t, 5*time.Second, "brokers converge on epoch 3", func() bool {
		for _, b := range brokers {
			if b.Epoch() != 3 {
				return false
			}
		}
		return true
	})

	// Rendezvous stability: fewer than 60% of users changed home, and at
	// least one did (2 new servers out of 4 should draw roughly half).
	moved := 0
	for u := range homesBefore {
		if brokers[0].HomeOf(uint32(u)) != homesBefore[u] {
			moved++
		}
	}
	if frac := float64(moved) / users; frac >= 0.6 {
		t.Errorf("grow 2->4 moved %.0f%% of homes, want < 60%% (rendezvous stability)", frac*100)
	} else if moved == 0 {
		t.Error("no homes moved after adding two servers")
	}

	// The rebalance pass migrates moved views to their new homes:
	// Migrated advances and the new servers take on load.
	waitFor(t, 10*time.Second, "rebalance migrates views onto the new servers", func() bool {
		info := brokers[0].Membership()
		return brokers[0].Stats().Migrated > 0 && info.Loads[2] > 0 && info.Loads[3] > 0
	})

	// Drain one of the original servers: its replica count must reach
	// zero while reads keep succeeding.
	if _, err := brokers[0].DrainServer(addrs[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "drained server empties", func() bool {
		return brokers[0].Membership().Loads[1] == 0
	})
	if _, err := brokers[0].RemoveServer(addrs[1]); err != nil {
		t.Fatal(err)
	}
	if got := brokers[0].Membership().View.Servers[1].State; got != membership.StateDead {
		t.Fatalf("removed server state = %v, want dead", got)
	}

	close(stopTraffic)
	trafficWG.Wait()
	if n := readErrs.Load(); n != 0 {
		t.Errorf("%d reads failed during the membership changes, want 0", n)
	}
	if n := emptyReads.Load(); n != 0 {
		t.Errorf("%d reads served an empty view for a seeded user, want 0", n)
	}

	// Kill broker 2 and restart it on its old WAL: it must come back at
	// the final epoch (5: seed + 2 adds + drain + remove) without asking
	// anyone.
	finalEpoch := brokers[0].Epoch()
	if finalEpoch != 5 {
		t.Fatalf("final epoch = %d, want 5", finalEpoch)
	}
	closeBroker(2)
	ln, err := net.Listen("tcp", peers[2].Addr)
	if err != nil {
		t.Fatal(err)
	}
	b2 := mkBroker(2, ln)
	defer b2.Close()
	if got := b2.Epoch(); got != finalEpoch {
		t.Fatalf("restarted broker epoch = %d, want %d (recovered from WAL/checkpoint)", got, finalEpoch)
	}
	// And it agrees on the server set: slot 1 dead, slots 2 and 3 active.
	v := b2.Membership().View
	if v.Servers[1].State != membership.StateDead ||
		v.Servers[2].State != membership.StateActive || v.Servers[3].State != membership.StateActive {
		t.Fatalf("restarted broker view = %+v", v.Servers)
	}
}

// viewpolicyConfigQuiet keeps the shared policy from reacting to the
// acceptance test's synthetic traffic (high admission bar), so the only
// placement changes are the membership-driven ones under test.
func viewpolicyConfigQuiet() (c viewpolicy.Config) {
	c.AdmissionEpsilon = 1e12
	return c
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAddServerIdempotentRejoin: a cache server restarted by a
// supervisor re-registers with the exact same AddServer request; the
// broker treats it as a no-op instead of failing on a duplicate address,
// so the node resumes under its existing slot.
func TestAddServerIdempotentRejoin(t *testing.T) {
	b, _, _ := testCluster(t, 2, nil)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	info := membership.ServerInfo{Addr: s.Addr(), Zone: 2, Rack: 1, Capacity: 32}
	v1, err := b.AddServer(info)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := b.AddServer(info) // identical re-registration
	if err != nil {
		t.Fatalf("identical re-add rejected: %v", err)
	}
	if v2.Epoch != v1.Epoch || len(v2.Servers) != len(v1.Servers) {
		t.Fatalf("re-add minted a new epoch: %d -> %d", v1.Epoch, v2.Epoch)
	}
	// A CONFLICTING registration of a live address is still an error.
	if _, err := b.AddServer(membership.ServerInfo{Addr: s.Addr(), Zone: 3, Rack: 0}); err == nil {
		t.Error("conflicting re-registration accepted")
	}
}

// TestEqualEpochConflictConverges: two partitioned leaders can mint
// different transitions under the same epoch; once views flow again,
// every broker must settle on the SAME winner (deterministic byte-order
// tie-break) regardless of delivery order, instead of diverging forever.
func TestEqualEpochConflictConverges(t *testing.T) {
	mk := func() *Broker {
		b, _, _ := testCluster(t, 2, nil)
		return b
	}
	b1, b2 := mk(), mk()
	base := b1.Membership().View

	sA, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sA.Close() })
	sB, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sB.Close() })
	viewA, err := base.WithAdded(membership.ServerInfo{Addr: sA.Addr(), Zone: 2, Rack: 1})
	if err != nil {
		t.Fatal(err)
	}
	viewB, err := base.WithAdded(membership.ServerInfo{Addr: sB.Addr(), Zone: 3, Rack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if viewA.Epoch != viewB.Epoch {
		t.Fatalf("epochs differ: %d vs %d", viewA.Epoch, viewB.Epoch)
	}
	payloadA := membership.AppendView(nil, viewA)
	payloadB := membership.AppendView(nil, viewB)

	// Opposite delivery orders on the two brokers.
	b1.applyMembershipPayload(payloadA)
	b1.applyMembershipPayload(payloadB)
	b2.applyMembershipPayload(payloadB)
	b2.applyMembershipPayload(payloadA)

	got1 := membership.AppendView(nil, b1.Membership().View)
	got2 := membership.AppendView(nil, b2.Membership().View)
	if !bytes.Equal(got1, got2) {
		t.Fatalf("brokers diverged on an equal-epoch conflict:\n%x\n%x", got1, got2)
	}
}

// TestStrandedUserRehomesAfterRemove: a placement entry whose every
// replica sits on a dead tombstone slot (minted by an operation that
// raced the removal with a pre-remove table) must self-heal — the read
// serves from the WAL, resets the entry, and the next access re-homes
// the user on a live server.
func TestStrandedUserRehomesAfterRemove(t *testing.T) {
	b, _, _ := testCluster(t, 2, nil)
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := b.AddServer(membership.ServerInfo{Addr: s.Addr(), Zone: 2, Rack: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DrainServer(s.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RemoveServer(s.Addr()); err != nil {
		t.Fatal(err)
	}

	// Seed durable data, then hand-strand the user on the dead slot 2 —
	// exactly the state the metaLocked/install race leaves behind.
	const u = uint32(4242)
	if _, err := b.Write(u, []byte("stranded")); err != nil {
		t.Fatal(err)
	}
	tab := b.table()
	now := time.Now().Unix()
	sh := b.shard(u)
	sh.mu.Lock()
	for _, idx := range sh.views[u].order {
		tab.load[idx].Add(-1)
	}
	sh.views[u] = &viewMeta{order: []int{2}, reps: map[int]*replicaMeta{2: b.newReplicaMeta(tab, now, 0)}}
	sh.mu.Unlock()
	tab.load[2].Add(1)

	// First read: served from the WAL, entry reset.
	v, err := b.ReadOne(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Events) != 1 || string(v.Events[0]) != "stranded" {
		t.Fatalf("stranded read = %q, want the durable event", v.Events)
	}
	// Second read: re-homed on a live slot, dead slot's count back to 0.
	if _, err := b.ReadOne(u); err != nil {
		t.Fatal(err)
	}
	set := b.ReplicaSet(u)
	if len(set) == 0 || set[0] == 2 {
		t.Fatalf("replica set after repair = %v, want a live slot", set)
	}
	if got := b.Membership().Loads[2]; got != 0 {
		t.Errorf("dead slot still accounts %d replicas", got)
	}
}

// TestConcurrentEpochBumpsDuringReads races membership mutations against
// the read and write paths: a single broker serves traffic while servers
// are added, drained, and removed underneath it. Run with -race (the CI
// race job does), this guards the lock-free table swap.
func TestConcurrentEpochBumpsDuringReads(t *testing.T) {
	b, _, _ := testCluster(t, 2, func(cfg *BrokerConfig) {
		cfg.PolicyEvery = 50 * time.Millisecond
		cfg.SyncEvery = 50 * time.Millisecond
	})
	const users = 64
	for u := uint32(0); u < users; u++ {
		if _, err := b.Write(u, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := uint32(w); ; u = (u + 4) % users {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.ReadOne(u); err != nil {
					errs <- fmt.Errorf("read during epoch bump: %w", err)
					return
				}
				if _, err := b.Write(u, []byte("x")); err != nil {
					errs <- fmt.Errorf("write during epoch bump: %w", err)
					return
				}
			}
		}(w)
	}

	// Mutate membership while the readers run: add three servers, drain
	// and remove one, re-add its address as a fresh slot.
	var extra []*Server
	for i := 0; i < 3; i++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		extra = append(extra, s)
		if _, err := b.AddServer(membership.ServerInfo{Addr: s.Addr(), Zone: 2 + i, Rack: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := b.DrainServer(extra[0].Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := b.RemoveServer(extra[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddServer(membership.ServerInfo{Addr: extra[0].Addr(), Zone: 5, Rack: 1}); err != nil {
		t.Fatalf("re-adding a removed server's address: %v", err)
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Five slots total (2 seed + 3 added + 1 re-add - 1 tombstone kept) =
	// 6 slots, 5 of them live.
	v := b.Membership().View
	if len(v.Servers) != 6 || v.NumActive() != 5 {
		t.Fatalf("final view: %d slots, %d active, want 6 and 5", len(v.Servers), v.NumActive())
	}
	if got := b.Epoch(); got != 7 {
		t.Errorf("epoch = %d, want 7 (six transitions after seed)", got)
	}
}
