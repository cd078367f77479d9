package dynasore

// DialOption customizes Dial and DialCluster.
type DialOption func(*dialConfig)

type dialConfig struct {
	poolSize     int
	batchSize    int
	direct       bool
	directLeases int
}

// WithPoolSize sets how many multiplexed connections the client keeps to
// each broker (default cluster.DefaultPoolSize).
func WithPoolSize(n int) DialOption {
	return func(c *dialConfig) { c.poolSize = n }
}

// WithReadBatchSize sets the chunk size above which a multi-user Read is
// split into concurrent batches across the pool (default 256). Zero or
// negative disables splitting.
func WithReadBatchSize(n int) DialOption {
	return func(c *dialConfig) { c.batchSize = n }
}

// WithDirectReads enables the direct-read fast path: the client leases
// hot users' replica sets from a broker and reads their views straight
// from the cache servers — one network hop instead of two — falling back
// to the broker whenever freshness cannot be proven (no lease, stale
// epoch, fenced placement). maxLeases bounds the client-side lease cache
// (<= 0 means cluster.DefaultMaxLeases). It works the same whether the
// client was dialed with Dial or DialCluster.
func WithDirectReads(maxLeases int) DialOption {
	return func(c *dialConfig) {
		c.direct = true
		c.directLeases = maxLeases
	}
}
