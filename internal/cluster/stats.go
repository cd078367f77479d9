package cluster

import (
	"fmt"
	"strings"

	"dynasore/internal/promtext"
)

// Stats summarizes broker activity: one broker's counters (Broker.Stats,
// Client.Stats), or a broker tier's summed with Add. pkg/dynasore exports
// it as dynasore.Stats.
type Stats struct {
	// Reads and Writes count completed API calls.
	Reads  int64
	Writes int64
	// Replicated, Evicted, and Migrated count the placement policy's
	// replica creations, removals, and migrations (§3.2, Algorithms 2–3).
	Replicated int64
	Evicted    int64
	Migrated   int64
	// Misses counts cache misses refilled from the persistent store (§3.3).
	Misses int64
	// Checkpoints and CompactedSegments count the durability subsystem's
	// activity: snapshots of the persistent store taken, and WAL segments
	// deleted because a snapshot fully covered them (zero unless the
	// broker runs with CheckpointEvery set).
	Checkpoints       int64
	CompactedSegments int64
	// CatchupRecords counts WAL records the broker recovered from its
	// peers via the per-origin catch-up protocol after missing them —
	// e.g. while it was down.
	CatchupRecords int64
	// LeaseGrants counts direct-read leases the broker issued; DirectReads
	// and DirectStale count a direct-reading client's own fast path —
	// views served client → cache server without the broker, and direct
	// attempts that fenced or failed back to the broker path. They are
	// zero for a broker's snapshot and for an Engine, which has no fast
	// path.
	LeaseGrants int64
	DirectReads int64
	DirectStale int64
	// Epoch is the broker's current membership epoch: it advances every
	// time a cache server is added, drained, or removed.
	Epoch uint64
}

// statCounters is the one list of the counters a broker keeps, in wire
// order. The opBrokerStats codec, Add, String and WriteMetrics all range
// over it, so a counter added here is carried, summed, printed and
// exported as dynasore_<name>_total everywhere at once. DirectReads and
// DirectStale are not listed: they count a client's fast path, not a
// broker's work.
var statCounters = [...]struct {
	name, help string
	field      func(*Stats) *int64
}{
	{"reads", "Completed Read calls on the broker.", func(s *Stats) *int64 { return &s.Reads }},
	{"writes", "Completed Write calls on the broker.", func(s *Stats) *int64 { return &s.Writes }},
	{"replicated", "Replica creations by the placement policy.", func(s *Stats) *int64 { return &s.Replicated }},
	{"evicted", "Replica evictions by the placement policy.", func(s *Stats) *int64 { return &s.Evicted }},
	{"migrated", "Replica migrations by the placement policy.", func(s *Stats) *int64 { return &s.Migrated }},
	{"misses", "Cache misses refilled from the persistent store.", func(s *Stats) *int64 { return &s.Misses }},
	{"checkpoints", "Snapshots taken of the persistent store.", func(s *Stats) *int64 { return &s.Checkpoints }},
	{"compacted_segments", "WAL segments deleted after a covering snapshot.", func(s *Stats) *int64 { return &s.CompactedSegments }},
	{"catchup_records", "WAL records recovered from peers by catch-up.", func(s *Stats) *int64 { return &s.CatchupRecords }},
	{"lease_grants", "Direct-read leases issued by the broker.", func(s *Stats) *int64 { return &s.LeaseGrants }},
}

// Add folds o's broker counters into st and keeps the larger epoch. The
// direct-read counts are left as they are: they belong to one client,
// so there is nothing to sum across brokers.
func (st *Stats) Add(o Stats) {
	for _, c := range statCounters {
		*c.field(st) += *c.field(&o)
	}
	st.Epoch = max(st.Epoch, o.Epoch)
}

// String renders st on one line as name=value pairs: the epoch, every
// broker counter under its table name, then the direct-read counts.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d", st.Epoch)
	for _, c := range statCounters {
		fmt.Fprintf(&b, " %s=%d", c.name, *c.field(&st))
	}
	fmt.Fprintf(&b, " direct_reads=%d direct_stale=%d", st.DirectReads, st.DirectStale)
	return b.String()
}

// WriteMetrics renders broker snapshots in the Prometheus text format:
// every counter of statCounters as the family dynasore_<name>_total with
// one sample per snapshot, then dynasore_membership_epoch, the largest
// epoch among them. Sample i is labelled broker=brokers[i]; a nil
// brokers leaves the samples unlabelled, for a page showing one broker.
func WriteMetrics(b *strings.Builder, brokers []string, stats []Stats) {
	var epoch uint64
	for _, st := range stats {
		epoch = max(epoch, st.Epoch)
	}
	for _, c := range statCounters {
		name := "dynasore_" + c.name + "_total"
		promtext.WriteHeader(b, name, "counter", c.help)
		for i := range stats {
			labels := ""
			if brokers != nil {
				labels = promtext.Labels("broker", brokers[i])
			}
			promtext.WriteInt(b, name, labels, *c.field(&stats[i]))
		}
	}
	promtext.WriteHeader(b, "dynasore_membership_epoch", "gauge", "Newest membership epoch a reporting broker has installed.")
	promtext.WriteUint(b, "dynasore_membership_epoch", "", epoch)
}
