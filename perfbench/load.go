package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/pkg/dynasore"
)

// opTimeout bounds one op; an op that takes longer counts as failed.
const opTimeout = 5 * time.Second

// maxOutstanding bounds the open loop's in-flight ops. A stall longer than
// this many inter-arrival gaps makes the generator itself late, which
// gen.late_p99_ms reports.
const maxOutstanding = 1024

// errViolation marks an op whose result broke a correctness invariant.
var errViolation = errors.New("correctness violation")

// userFloor is the newest acknowledged write of one user.
type userFloor struct {
	mu      sync.Mutex
	acked   bool
	seq     uint64
	payload []byte
}

// runner issues a plan's ops against a deployment and checks every
// result against the acknowledged writes.
type runner struct {
	d      *deployment
	p      *plan
	next   atomic.Uint64
	floors []userFloor
	posts  atomic.Uint64

	ackBytes   atomic.Int64 // payload bytes of acknowledged writes
	violations atomic.Int64
	violMu     sync.Mutex
	violMsgs   []string
}

func newRunner(d *deployment, p *plan) *runner {
	return &runner{d: d, p: p, floors: make([]userFloor, p.w.Users)}
}

// violate records a broken invariant.
func (r *runner) violate(format string, args ...any) {
	r.violations.Add(1)
	r.violMu.Lock()
	if len(r.violMsgs) < 10 {
		r.violMsgs = append(r.violMsgs, fmt.Sprintf(format, args...))
	}
	r.violMu.Unlock()
}

func (r *runner) floor(u uint32) uint64 {
	f := &r.floors[u]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

func (r *runner) ack(u uint32, seq uint64, payload []byte) {
	r.ackBytes.Add(int64(len(payload)))
	f := &r.floors[u]
	f.mu.Lock()
	if !f.acked || seq > f.seq {
		f.acked, f.seq, f.payload = true, seq, payload
	}
	f.mu.Unlock()
}

// payload builds a unique post of the workload's size.
func (r *runner) payload(u uint32) []byte {
	b := make([]byte, r.p.w.PayloadBytes)
	n := copy(b, fmt.Sprintf("user %d post %d|", u, r.posts.Add(1)))
	for i := n; i < len(b); i++ {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

func (r *runner) nextOp() op {
	return r.p.ops[(r.next.Add(1)-1)%uint64(len(r.p.ops))]
}

// exec runs one op through the user's front-end. A read snapshots the
// acknowledged versions of its targets before it is issued: any view
// older than that snapshot is a wrong-version read.
func (r *runner) exec(ctx context.Context, o op) (views int, err error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	c := r.d.frontEnd(o.user)
	if o.write {
		payload := r.payload(o.user)
		seq, err := c.Write(ctx, o.user, payload)
		if err != nil {
			return 0, err
		}
		r.ack(o.user, seq, payload)
		return 0, nil
	}
	targets := r.p.feeds[o.user]
	floors := make([]uint64, len(targets))
	for i, t := range targets {
		floors[i] = r.floor(t)
	}
	got, err := c.Read(ctx, targets)
	if err != nil {
		return 0, err
	}
	if len(got) != len(targets) {
		r.violate("read of %d targets returned %d views", len(targets), len(got))
		return 0, errViolation
	}
	for i, v := range got {
		if v.Version < floors[i] {
			r.violate("user %d read version %d below acknowledged %d", targets[i], v.Version, floors[i])
			err = errViolation
		}
	}
	return len(targets), err
}

// phase accumulates one load phase's outcomes. Latencies are in ms.
type phase struct {
	mu       sync.Mutex
	ops      int64
	failed   int64
	reads    int64
	writes   int64
	views    int64
	readLat  []float64
	writeLat []float64
	late     []float64
	errs     map[string]int
	elapsed  time.Duration
	// client spans of a traced sequential phase, in network time
	spans []clientSpan
}

type clientSpan struct {
	write      bool
	start, end int64
}

func (ph *phase) record(o op, views int, lat time.Duration, err error) {
	ms := float64(lat) / float64(time.Millisecond)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.ops++
	if err != nil {
		ph.failed++
		if ph.errs == nil {
			ph.errs = map[string]int{}
		}
		if len(ph.errs) < 20 {
			ph.errs[err.Error()]++
		}
		return
	}
	if o.write {
		ph.writes++
		ph.writeLat = append(ph.writeLat, ms)
	} else {
		ph.reads++
		ph.views += int64(views)
		ph.readLat = append(ph.readLat, ms)
	}
}

func (ph *phase) completed() int64 { return ph.ops - ph.failed }

// closedLoop keeps workers ops outstanding for dur.
func (r *runner) closedLoop(ctx context.Context, workers int, dur time.Duration) *phase {
	ph := &phase{}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := r.nextOp()
				t := time.Now()
				views, err := r.exec(ctx, o)
				ph.record(o, views, time.Since(t), err)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// openLoop offers rate ops/s on a fixed schedule for warm+dur, regardless
// of completions, and times every op from when it was due. The ops due in
// the first warm go to the returned warm-up phase, the rest to the
// measured one; mark, if set, runs just before the first measured op is
// issued.
func (r *runner) openLoop(ctx context.Context, rate float64, warm, dur time.Duration, mark func()) (measured, warmUp *phase) {
	w := newWaiter()
	defer w.close()
	gap := time.Duration(float64(time.Second) / rate)
	nWarm := int(warm / gap)
	n := nWarm + int(dur/gap)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	measureFrom := start.Add(time.Duration(nWarm) * gap)
	warmUp, measured = &phase{}, &phase{}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * gap)
		w.until(due)
		sem <- struct{}{}
		ph := warmUp
		if i >= nWarm {
			ph = measured
			if i == nWarm && mark != nil {
				mark()
			}
		}
		late := time.Since(due)
		ph.mu.Lock()
		ph.late = append(ph.late, float64(late)/float64(time.Millisecond))
		ph.mu.Unlock()
		o := r.nextOp()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			views, err := r.exec(ctx, o)
			ph.record(o, views, time.Since(due), err)
		}()
	}
	wg.Wait()
	warmUp.elapsed = measureFrom.Sub(start)
	measured.elapsed = time.Since(measureFrom)
	return measured, warmUp
}

// sequential issues one op at a time for dur; with traced set it records
// each op's client span in network time, so relay spans nest under it.
func (r *runner) sequential(ctx context.Context, dur time.Duration, traced bool) *phase {
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < dur && ctx.Err() == nil {
		o := r.nextOp()
		t0 := r.d.net.now()
		t := time.Now()
		views, err := r.exec(ctx, o)
		lat := time.Since(t)
		t1 := r.d.net.now()
		ph.record(o, views, lat, err)
		if traced && err == nil {
			ph.spans = append(ph.spans, clientSpan{write: o.write, start: t0, end: t1})
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// seed writes one post for every user, so every feed target exists.
func (r *runner) seed(ctx context.Context, workers int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := next.Add(1) - 1
				if u >= int64(r.p.w.Users) {
					return
				}
				if _, err := r.exec(ctx, op{user: uint32(u), write: true}); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("seed user %d: %w", u, err)
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// warmRounds is the warm-up's length in policy intervals. It is fixed,
// not "until placement stops moving": on feed-broker placement never
// stops, and a stopping rule that fires in some runs and not in others
// would make setup_s bimodal. warmUp reports whether the last round moved
// nothing.
const warmRounds = 2

// warmUp runs the op stream closed-loop for warmRounds policy intervals
// and reports whether placement had settled by the last one.
func (r *runner) warmUp(ctx context.Context, workers int) (settled bool) {
	moved := func() int64 {
		st := r.d.brokerStats()
		return st.Replicated + st.Migrated + st.Evicted
	}
	prev := moved()
	for i := 0; i < warmRounds; i++ {
		r.closedLoop(ctx, workers, policyEvery)
		cur := moved()
		settled = cur == prev
		prev = cur
	}
	return settled
}

// sweep reads every user back through c and checks that no acknowledged
// write was lost: each view is at least as new as the user's newest
// acknowledged write, and a view at exactly that version ends with that
// write's payload. A few batches are in flight at once, since each one
// waits out the relays' delays.
func (r *runner) sweep(ctx context.Context, c *dynasore.ClusterClient) (attempted, failed int64) {
	const batch, workers = 64, 4
	var next, nAttempted, nFailed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(batch) - batch)
				if lo >= r.p.w.Users {
					return
				}
				a, f := r.sweepBatch(ctx, c, lo, min(lo+batch, r.p.w.Users))
				nAttempted.Add(a)
				nFailed.Add(f)
			}
		}()
	}
	wg.Wait()
	return nAttempted.Load(), nFailed.Load()
}

// sweepBatch checks users lo..hi-1.
func (r *runner) sweepBatch(ctx context.Context, c *dynasore.ClusterClient, lo, hi int) (attempted, failed int64) {
	var users []uint32
	for u := lo; u < hi; u++ {
		users = append(users, uint32(u))
	}
	attempted = int64(len(users))
	views, err := c.Read(ctx, users)
	if err != nil {
		r.violate("sweep read of users %d..%d: %v", lo, hi-1, err)
		return attempted, attempted
	}
	for i, u := range users {
		f := &r.floors[u]
		f.mu.Lock()
		acked, seq, payload := f.acked, f.seq, f.payload
		f.mu.Unlock()
		v := views[i]
		switch {
		case !acked:
		case v.Version < seq:
			r.violate("sweep: user %d at version %d, acknowledged %d (lost write)", u, v.Version, seq)
			failed++
		case v.Version == seq && (len(v.Events) == 0 || !bytes.Equal(v.Events[len(v.Events)-1], payload)):
			r.violate("sweep: user %d version %d holds a different newest event", u, seq)
			failed++
		}
	}
	return attempted, failed
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
