// Command perfbench is the repository's benchmark. It boots the
// docker-compose deployment shape (three brokers with their own
// checkpointed WALs, four cache servers in two zones) inside one process,
// routes every hop through relays that emulate the data-center switch
// tree, and drives one seeded workload through the public pkg/dynasore
// API. It checks every result for correctness and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1) as one JSON object on the last line of standard output.
//
//	go run . --workload feed-broker --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynasore/pkg/dynasore"
)

// Load shape. The closed loop keeps closedWorkers ops outstanding;
// seeding and warm-up use their own fixed concurrency.
const (
	closedWorkers = 16
	seedWorkers   = 32
	warmWorkers   = 16
	// setups is how many times a --trace 0 run sets the deployment up;
	// setup_s is their median.
	setups = 3
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: feed-broker, feed-direct or post-storm")
	seed := fl.Int64("seed", 1, "seed of the generated graph and op stream")
	seconds := fl.Int("seconds", 10, "seconds of measured load")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		logf("perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1", strings.Join(names, ", "))
		return 2
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	defer os.RemoveAll(root)

	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	steal0, total0 := cpuTicks()
	var res *result
	if *trace == 1 {
		res, err = tracedRun(ctx, w, *seed, dur, root)
	} else {
		res, err = measuredRun(ctx, w, *seed, dur, root)
	}
	if err != nil {
		logf("perfbench: %s: %v", w.Name, err)
		return 1
	}
	res.context["seed"] = *seed
	res.context["workload"] = w.Name
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor gave to other guests: a run on a busy host
		// reads slower for reasons outside the program.
		res.context["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	res.print()
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	context   map[string]any
	notes     []string
}

func (r *result) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

func (r *result) addQuantile(name string, q Quantile) {
	r.add(name, q.Value, "ms", fmt.Sprintf("%d samples, %d beyond", q.N, q.Beyond))
}

// print writes the human-readable report to stderr, then the run context
// and the result object as the last two lines of stdout.
func (r *result) print() {
	for _, n := range r.notes {
		logf("  %s", n)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		logf("%s", line)
	}
	ctxLine, _ := json.Marshal(map[string]any{"context": r.context})
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Println(string(ctxLine))
	fmt.Println(string(out))
}

// instance is one set-up deployment with its plan and runner.
type instance struct {
	d      *deployment
	p      *plan
	r      *runner
	stages string // how long each setup stage took
}

// setUp generates the workload, boots the deployment, seeds every user
// and warms up. With stagger the brokers boot checkpointStagger apart;
// the returned set-up time leaves those waits out.
func setUp(ctx context.Context, w Workload, seed int64, root string, stagger bool) (*instance, time.Duration, error) {
	start := time.Now()
	p, err := makePlan(w, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, err
	}
	d, err := boot(ctx, root, w.Direct, runtime.NumCPU(), stagger)
	if err != nil {
		return nil, 0, err
	}
	start = start.Add(d.staggered)
	booted := time.Now()
	r := newRunner(d, p)
	if err := r.seed(ctx, seedWorkers); err != nil {
		return nil, 0, errors.Join(err, d.close())
	}
	seeded := time.Now()
	in := &instance{d: d, p: p, r: r}
	settled := r.warmUp(ctx, warmWorkers)
	in.stages = fmt.Sprintf("generate+boot %.2fs, seed %.2fs, warm-up %.2fs (placement settled: %v)",
		booted.Sub(start).Seconds(), seeded.Sub(booted).Seconds(), time.Since(seeded).Seconds(), settled)
	return in, time.Since(start), nil
}

func runContext(p *plan) map[string]any {
	return map[string]any{
		"go":               runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"cpu":              cpuModel(),
		"fingerprint":      p.fingerprint,
		"targets_per_read": p.meanTargets(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the machine's steal and total CPU ticks (/proc/stat).
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// finish drains the instance: a sweep of every user through a client
// dialed straight to the brokers, then Close (each broker takes its
// parting checkpoint), then the data-dir size.
func finish(ctx context.Context, in *instance, res *result) (storeBytes int64, err error) {
	var addrs []string
	for _, b := range in.d.brokers {
		addrs = append(addrs, b.Addr())
	}
	if err := in.d.checkRouting(); err != nil {
		return 0, errors.Join(err, in.d.close())
	}
	sc, err := dynasore.DialCluster(ctx, addrs)
	if err != nil {
		return 0, errors.Join(err, in.d.close())
	}
	a, f := in.r.sweep(ctx, sc)
	res.attempted += a
	res.failed += f
	if err := errors.Join(sc.Close(), in.d.close()); err != nil {
		return 0, fmt.Errorf("close deployment: %w", err)
	}
	return dirsBytes(in.d.dirs)
}

// checkStores runs the after-Close store checks and counts them.
func (in *instance) checkStores(ctx context.Context, res *result) error {
	a, f, err := in.r.checkStores(ctx, in.d.dirs)
	res.attempted += a
	res.failed += f
	return err
}

func (in *instance) verdict(res *result) {
	res.correct = in.r.violations.Load() == 0
	in.r.violMu.Lock()
	for _, m := range in.r.violMsgs {
		res.notes = append(res.notes, "VIOLATION: "+m)
	}
	in.r.violMu.Unlock()
}

func phaseNotes(label string, ph *phase) string {
	s := fmt.Sprintf("%s: %d ops (%d reads, %d writes, %d failed) in %.2fs", label, ph.ops, ph.reads, ph.writes, ph.failed, ph.elapsed.Seconds())
	for e, n := range ph.errs {
		s += fmt.Sprintf("; %dx %q", n, e)
	}
	return s
}

// measuredRun is a --trace 0 run: setup_s over several setups, then a
// closed-loop phase for peak_ops_s and an open-loop phase at the
// workload's fixed rate for latency and bytes per op.
func measuredRun(ctx context.Context, w Workload, seed int64, dur time.Duration, root string) (*result, error) {
	var times []float64
	var in *instance
	var discarded []string // violations seen while setting up discarded instances
	for i := 0; i < setups; i++ {
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		// Only the deployment that is measured needs its brokers'
		// checkpoints staggered.
		inst, took, err := setUp(ctx, w, seed, dir, i == setups-1)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		times = append(times, took.Seconds())
		if i == setups-1 {
			in = inst
			break
		}
		if err := inst.d.close(); err != nil {
			return nil, fmt.Errorf("tear down setup %d: %w", i, err)
		}
		discarded = append(discarded, inst.r.violMsgs...)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	res := &result{context: runContext(in.p)}
	for _, m := range discarded {
		in.r.violate("setup: %s", m)
	}
	res.notes = append(res.notes, fmt.Sprintf("setup times %.2f s; last setup: %s", times, in.stages))

	// A fifth of the run is the closed loop, a fifth the open loop's
	// warm-up, the rest its measured part. The closed loop and the
	// measured part last whole checkpoint cycles, so each holds the same
	// checkpoints of every broker in every run (checkpointStagger).
	closedDur := max((dur / 5).Truncate(checkpointEvery), checkpointEvery)
	warmDur := dur / 5
	openDur := max((dur - closedDur - warmDur).Truncate(checkpointEvery), checkpointEvery)
	closed := in.r.closedLoop(ctx, closedWorkers, closedDur)
	var c0 Counters
	open, warm := in.r.openLoop(ctx, w.Rate, warmDur, openDur, func() { c0 = in.d.net.Snapshot() })
	c1 := in.d.net.Snapshot()
	wire := c1.Sub(c0)
	res.attempted = closed.ops + warm.ops + open.ops
	res.failed = closed.failed + warm.failed + open.failed
	res.notes = append(res.notes, phaseNotes("closed loop", closed), phaseNotes("open loop", open))

	storeBytes, err := finish(ctx, in, res)
	if err == nil {
		err = in.checkStores(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	in.verdict(res)

	done := float64(open.completed())
	res.add("setup_s", median(times), "s", fmt.Sprintf("median of %d setups", len(times)))
	res.addQuantile("read_p50_ms", quantileOf(open.readLat, 0.50))
	res.addQuantile("write_p50_ms", quantileOf(open.writeLat, 0.50))
	res.add("peak_ops_s", float64(closed.completed())/closed.elapsed.Seconds(), "ops/s", fmt.Sprintf("%d outstanding", closedWorkers))
	res.add("top_bytes_per_op", float64(wire.LevelBytes[LevelTop])/done, "B/op", "")
	res.add("net_bytes_per_op", float64(wire.Total())/done, "B/op", "")
	res.add("store_bytes_per_user_byte", float64(storeBytes)/float64(in.r.ackBytes.Load()), "ratio",
		fmt.Sprintf("%d B on disk / %d B acknowledged", storeBytes, in.r.ackBytes.Load()))
	res.add("peak_rss_mb", peakRSSMiB(), "MiB", "")
	// The tails move too much from run to run to be bounded (README.md):
	// the read tail is the length of a few checkpoint stalls, and feed
	// workloads post 10 % of the time, so a run holds about 200 writes.
	// They are reported here with their sample counts.
	for _, t := range []struct {
		name    string
		samples []float64
		q       float64
	}{{"read_p99_ms", open.readLat, 0.99}, {"write_p90_ms", open.writeLat, 0.90}, {"write_p99_ms", open.writeLat, 0.99}} {
		v := quantileOf(t.samples, t.q)
		res.notes = append(res.notes, fmt.Sprintf("%s %.4f ms (%d samples, %d beyond)", t.name, v.Value, v.N, v.Beyond))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("fail_ratio %.6f (%d of %d); offered %.0f ops/s; generator late p99 %.3f ms",
			float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted, w.Rate, quantileOf(open.late, 0.99).Value))
	return res, nil
}

// tracedRun is a --trace 1 run: one setup, an open-loop phase whose
// counters give the per-layer ratios, then ops one at a time without and
// with relay spans, so spans nest by time and the difference between the
// two phases is the tracing overhead.
func tracedRun(ctx context.Context, w Workload, seed int64, dur time.Duration, root string) (*result, error) {
	in, _, err := setUp(ctx, w, seed, filepath.Join(root, "setup0"), true)
	if err != nil {
		return nil, err
	}
	res := &result{context: runContext(in.p)}
	d := in.d

	c0, st0 := d.net.Snapshot(), d.brokerStats()
	dr0, ds0, err := d.clientDirect(ctx)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	disk0, err := dirsBytes(d.dirs)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	ack0 := in.r.ackBytes.Load()
	open, _ := in.r.openLoop(ctx, w.Rate, 0, dur/2, nil)
	c1, st1 := d.net.Snapshot(), d.brokerStats()
	dr1, ds1, err := d.clientDirect(ctx)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	disk1, err := dirsBytes(d.dirs)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	ack1 := in.r.ackBytes.Load()

	untraced := in.r.sequential(ctx, dur/5, false)
	d.net.SetTracing(true)
	traced := in.r.sequential(ctx, dur*3/10, true)
	d.net.SetTracing(false)
	time.Sleep(10 * time.Millisecond) // let the last responses settle
	spans := d.net.Spans()
	rep := analyzeTrace(traced.spans, spans)

	views := d.views()
	leader := d.leader()
	var replicas float64
	for _, u := range in.p.hot {
		replicas += float64(leader.ReplicaCount(u))
	}
	replicas /= float64(len(in.p.hot))
	stEnd := d.brokerStats()

	res.attempted = open.ops + untraced.ops + traced.ops
	res.failed = open.failed + untraced.failed + traced.failed
	res.notes = append(res.notes, phaseNotes("open loop", open), phaseNotes("sequential", untraced), phaseNotes("sequential traced", traced))
	_, err = finish(ctx, in, res)
	var reopenMs float64
	if err == nil {
		reopenMs, err = timeReopen(d.dirs[0], filepath.Join(root, "reopen"))
	}
	if err == nil {
		err = in.checkStores(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	in.verdict(res)

	wire := c1.Sub(c0)
	ops := float64(open.completed())
	kviews := float64(open.views) / 1000
	kops := ops / 1000
	perOp := func(h Hop) float64 { return float64(wire.HopBytes[h]) / ops }
	res.add("client.read_self_us", rep.clientReadSelf, "us", fmt.Sprintf("read span %.1f = self + wire %.1f", rep.clientReadSpan, rep.clientReadWire))
	res.add("client.write_self_us", rep.clientWriteSelf, "us", fmt.Sprintf("write span %.1f = self + wire %.1f", rep.clientWriteSpan, rep.clientWriteWire))
	res.add("client.direct_hit_ratio", float64(dr1-dr0)/float64(open.views), "ratio", fmt.Sprintf("%d direct of %d views", dr1-dr0, open.views))
	res.add("client.lease_grants_per_kread", float64(st1.LeaseGrants-st0.LeaseGrants)/kviews, "1/kview", "")
	res.add("client.stale_fallbacks_per_kread", float64(ds1-ds0)/kviews, "1/kview", "")
	for _, h := range []Hop{HopCB, HopBS, HopCS, HopBB} {
		res.add("wire."+hopNames[h]+"_bytes_per_op", perOp(h), "B/op", "")
	}
	res.add("wire.rack_bytes_per_op", float64(wire.LevelBytes[LevelRack])/ops, "B/op", "")
	res.add("wire.inter_bytes_per_op", float64(wire.LevelBytes[LevelInter])/ops, "B/op", "")
	res.add("wire.bs_frames_per_read", rep.bsFramesPerRead, "frames", "")
	res.add("wire.cs_frames_per_read", rep.csFramesPerRead, "frames", "")
	res.add("wire.bs_frames_per_write", rep.bsFramesPerWrite, "frames", "")
	res.add("wire.bs_bytes_per_write", rep.bsBytesPerWrite, "B", "")
	res.add("wire.unparsed_conns", float64(c1.Unparsed), "count", "")
	res.add("broker.read_self_us", rep.brokerReadSelf, "us", fmt.Sprintf("cb span %.1f", rep.brokerReadSpan))
	res.add("broker.write_self_us", rep.brokerWriteSelf, "us", fmt.Sprintf("cb span %.1f", rep.brokerWriteSpan))
	res.add("broker.server_wait_us", rep.brokerServerWait, "us", "")
	res.add("broker.misses_per_kread", float64(st1.Misses-st0.Misses)/kviews, "1/kview", "")
	res.add("server.get_us", rep.serverGet, "us", "")
	res.add("server.direct_get_us", rep.serverDirectGet, "us", "")
	res.add("server.views", float64(views), "count", "")
	res.add("policy.replicated_per_kop", float64(st1.Replicated-st0.Replicated)/kops, "1/kop", "")
	res.add("policy.migrated_per_kop", float64(st1.Migrated-st0.Migrated)/kops, "1/kop", "")
	res.add("policy.evicted_per_kop", float64(st1.Evicted-st0.Evicted)/kops, "1/kop", "")
	res.add("policy.replicas_per_view", replicas, "count", fmt.Sprintf("mean over the %d most-read views", len(in.p.hot)))
	res.add("wal.bytes_per_user_byte", float64(disk1-disk0)/float64(ack1-ack0), "ratio", "")
	res.add("checkpoint.count", float64(stEnd.Checkpoints), "count", "")
	res.add("checkpoint.compacted_segments", float64(stEnd.CompactedSegments), "count", "")
	res.add("store.reopen_ms", reopenMs, "ms", "OpenStore on a copy of broker 0's data dir")
	res.add("gen.late_p99_ms", quantileOf(open.late, 0.99).Value, "ms", "")
	res.addQuantile("trace.read_p50_ms", quantileOf(traced.readLat, 0.50))
	res.addQuantile("trace.untraced_read_p50_ms", quantileOf(untraced.readLat, 0.50))
	res.notes = append(res.notes, fmt.Sprintf("trace: %d client spans, %d relay spans, %d orphan spans", len(traced.spans), len(spans), rep.orphans))
	if path, err := writeSpans(w.Name, traced.spans, spans); err != nil {
		res.notes = append(res.notes, "span dump failed: "+err.Error())
	} else {
		res.notes = append(res.notes, "spans written to "+path)
	}
	return res, nil
}

// writeSpans dumps the traced phase's spans as JSON lines.
func writeSpans(workload string, ops []clientSpan, spans []Span) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	for _, o := range ops {
		name := "client.read"
		if o.write {
			name = "client.write"
		}
		fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", name, o.start, o.end)
	}
	for _, s := range spans {
		fmt.Fprintf(bw, `{"name":"wire.%s","level":%q,"op":%d,"start_ns":%d,"fwd_ns":%d,"back_ns":%d,"end_ns":%d,"req_bytes":%d,"resp_bytes":%d}`+"\n",
			hopNames[s.Hop], levelNames[s.Level], s.Op, s.Start, s.Fwd, s.Back, s.End, s.ReqBytes, s.RespBytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
