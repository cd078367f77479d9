// Feedservice: run a live DynaSoRe cluster on localhost — three standalone
// cache servers, one broker with a WAL-backed persistent store — and serve
// social feeds over real TCP through pkg/dynasore, demonstrating the
// drop-in-for-memcache API (§3.1), durability across cache wipes (§3.3),
// and hot-view replication (§3.2).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"dynasore/internal/socialgraph"
	"dynasore/pkg/dynasore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	dataDir, err := os.MkdirTemp("", "dynasore-feed")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	// Three cache servers and one broker whose "rack-local" server is #2.
	var servers []*dynasore.CacheServer
	var addrs []string
	for i := 0; i < 3; i++ {
		s, err := dynasore.ListenCacheServer("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	broker, err := dynasore.ListenBroker(dynasore.BrokerConfig{
		Addr:             "127.0.0.1:0",
		CacheServerAddrs: addrs,
		DataDir:          dataDir,
		// Server 2 shares the broker's rack; servers 0 and 1 are remote.
		// The shared placement policy (§3, Algorithms 2–3) replicates hot
		// views onto the rack-local server and evicts abandoned copies.
		Placement: &dynasore.Placement{
			Broker: dynasore.Position{Zone: 0, Rack: 0},
			Servers: []dynasore.Position{
				{Zone: 1, Rack: 0}, {Zone: 1, Rack: 1}, {Zone: 0, Rack: 0},
			},
		},
		PolicyEvery: 200 * time.Millisecond,
		// A few reads inside the window are enough to replicate in a demo.
		Policy: dynasore.PolicyConfig{AdmissionEpsilon: 500},
	})
	if err != nil {
		return err
	}
	defer broker.Close()
	fmt.Printf("cluster up: broker %s, cache servers %v\n", broker.Addr(), addrs)

	// The network client multiplexes concurrent requests.
	client, err := dynasore.Dial(ctx, broker.Addr())
	if err != nil {
		return err
	}
	defer client.Close()

	// A small social circle: everyone follows user 1 and their neighbor.
	g, err := socialgraph.Facebook(50, 7)
	if err != nil {
		return err
	}
	// Producers publish a few events each.
	for u := uint32(0); u < 10; u++ {
		for i := 0; i < 3; i++ {
			if _, err := client.Write(ctx, u, []byte(fmt.Sprintf("user %d, post %d", u, i))); err != nil {
				return err
			}
		}
	}

	// Reader 0 fetches their feed: the views of everyone they follow.
	var feedOf []uint32
	for _, v := range g.Following(0) {
		if v < 10 {
			feedOf = append(feedOf, uint32(v))
		}
	}
	if len(feedOf) == 0 {
		feedOf = []uint32{1, 2, 3}
	}
	views, err := client.Read(ctx, feedOf)
	if err != nil {
		return err
	}
	fmt.Printf("feed for user 0 (%d producers):\n", len(views))
	for i, v := range views {
		for _, e := range v.Events {
			fmt.Printf("  [%d] %s\n", feedOf[i], e)
		}
	}

	// Hammer one hot view; the broker replicates it onto its local server.
	for i := 0; i < 12; i++ {
		if _, err := client.Read(ctx, []uint32{1}); err != nil {
			return err
		}
	}
	fmt.Printf("replicas of hot view 1: %d\n", broker.ReplicaCount(1))

	// Wipe a cache server (crash) — reads still succeed from the WAL.
	fmt.Println("simulating cache server crash (wipe server 1)...")
	servers[1].Close()
	if _, err := client.Read(ctx, []uint32{1, 4, 7}); err != nil {
		fmt.Printf("reads after crash degraded: %v\n", err)
	} else {
		fmt.Println("reads after crash still served (replicas + persistent store)")
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Println("broker stats:", st)
	return nil
}
