package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// distinctStats returns a Stats whose every field holds its own value,
// base*100 + the field's index, so a dropped or swapped field shows.
func distinctStats(base int) Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		n := base*100 + i
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		default:
			panic(fmt.Sprintf("Stats.%s is a %s", v.Type().Field(i).Name, f.Kind()))
		}
	}
	return st
}

// TestStatsTableCoversEveryCounter pins the one-table invariant: every
// int64 field of Stats is a broker counter listed in statCounters exactly
// once, or one of the client-side direct-read counts; the epoch is the
// only other field.
func TestStatsTableCoversEveryCounter(t *testing.T) {
	var st Stats
	byAddr := map[uintptr]int{}
	names := map[string]bool{}
	for _, c := range statCounters {
		byAddr[reflect.ValueOf(c.field(&st)).Pointer()]++
		if names[c.name] {
			t.Errorf("counter name %q listed twice", c.name)
		}
		names[c.name] = true
	}
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, addr := v.Type().Field(i), v.Field(i).UnsafeAddr()
		n := byAddr[addr]
		delete(byAddr, addr)
		switch {
		case f.Name == "Epoch":
			if f.Type.Kind() != reflect.Uint64 || n != 0 {
				t.Errorf("Epoch: %s, in the table %d times; want a uint64 outside it", f.Type, n)
			}
		case f.Type.Kind() != reflect.Int64:
			t.Errorf("Stats.%s is a %s; counters are int64", f.Name, f.Type)
		case f.Name == "DirectReads" || f.Name == "DirectStale":
			if n != 0 {
				t.Errorf("client-side %s is in the broker counter table", f.Name)
			}
		case n != 1:
			t.Errorf("Stats.%s is in the counter table %d times, want once", f.Name, n)
		}
	}
	if len(byAddr) != 0 {
		t.Errorf("%d table entries point outside Stats's fields", len(byAddr))
	}
}

// TestStatsAdd sums every broker counter, keeps the larger epoch either
// way round, and leaves the receiver's direct-read counts alone.
func TestStatsAdd(t *testing.T) {
	a, b := distinctStats(1), distinctStats(2)
	sum := a
	sum.Add(b)
	for _, c := range statCounters {
		if got, want := *c.field(&sum), *c.field(&a)+*c.field(&b); got != want {
			t.Errorf("%s: %d + %d = %d", c.name, *c.field(&a), *c.field(&b), got)
		}
	}
	if sum.Epoch != b.Epoch || sum.DirectReads != a.DirectReads || sum.DirectStale != a.DirectStale {
		t.Errorf("sum = %+v: want epoch %d and direct counts %d/%d", sum, b.Epoch, a.DirectReads, a.DirectStale)
	}
	rev := b
	rev.Add(a)
	if rev.Epoch != b.Epoch {
		t.Errorf("epoch %d after adding a smaller one, want %d", rev.Epoch, b.Epoch)
	}
}

// TestWriteMetricsRendersEveryCounterOnce renders two brokers' distinct
// snapshots: every counter is one dynasore_<name>_total family with one
// broker-labelled sample per broker, and the epoch gauge carries the max.
// A single unlabelled snapshot renders the same families without labels.
func TestWriteMetricsRendersEveryCounterOnce(t *testing.T) {
	stats := []Stats{distinctStats(2), distinctStats(1)}
	brokers := []string{"10.0.0.1:7000", "10.0.0.2:7000"}
	var b strings.Builder
	WriteMetrics(&b, brokers, stats)
	out := b.String()
	for _, c := range statCounters {
		name := "dynasore_" + c.name + "_total"
		if n := strings.Count(out, "# TYPE "+name+" counter\n"); n != 1 {
			t.Errorf("%s: %d TYPE lines, want 1", name, n)
		}
		for i := range stats {
			line := fmt.Sprintf("%s{broker=%q} %d\n", name, brokers[i], *c.field(&stats[i]))
			if !strings.Contains(out, line) {
				t.Errorf("scrape missing %q", line)
			}
		}
	}
	if want := fmt.Sprintf("dynasore_membership_epoch %d\n", stats[0].Epoch); !strings.Contains(out, want) {
		t.Errorf("scrape missing %q", want)
	}
	if strings.Contains(out, "dynasore_direct") {
		t.Errorf("client-side direct-read counts rendered as broker series:\n%s", out)
	}

	b.Reset()
	WriteMetrics(&b, nil, stats[:1])
	for _, c := range statCounters {
		line := fmt.Sprintf("dynasore_%s_total %d\n", c.name, *c.field(&stats[0]))
		if !strings.Contains(b.String(), line) {
			t.Errorf("unlabelled scrape missing %q", line)
		}
	}
}

// TestStatsString prints the epoch, every counter under its table name,
// and the direct-read counts.
func TestStatsString(t *testing.T) {
	st := distinctStats(1)
	got := st.String()
	pairs := []string{fmt.Sprintf("epoch=%d", st.Epoch),
		fmt.Sprintf("direct_reads=%d", st.DirectReads), fmt.Sprintf("direct_stale=%d", st.DirectStale)}
	for _, c := range statCounters {
		pairs = append(pairs, fmt.Sprintf("%s=%d", c.name, *c.field(&st)))
	}
	for _, p := range pairs {
		if !strings.Contains(" "+got+" ", " "+p+" ") {
			t.Errorf("String() = %q, missing %q", got, p)
		}
	}
}
