package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed region of an operation: a call into a layer's public
// function that the benchmark wrapped, or an interval copied from the
// daemon's request trace. Names are "<layer>.<what>", with the layer named
// after the repository module ("detect", "hdface", "serve", ...). A span
// whose Parent is -1 is an operation root: the whole operation as its
// caller saw it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run executes the same benchmark code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	return t.addSpan(span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Op: op})
}

func (t *tracer) addSpan(s span) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin opens a span whose end is not known yet; finish closes it.
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	return t.addSpan(span{Name: name, Start: now, End: now, Parent: parent, Op: op})
}

func (t *tracer) finish(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[idx].End = now
	t.mu.Unlock()
}

// merge appends spans buffered by one goroutine.
func (t *tracer) merge(ss []span) {
	if t == nil || len(ss) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// durations returns every duration of spans with the given name, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// perOp sums the durations of spans with the given name per operation and
// returns one total per operation that has any, in ns.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int32]float64{}
	var order []int32
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += float64(s.End - s.Start)
	}
	out := make([]float64, 0, len(order))
	for _, op := range order {
		out = append(out, sums[op])
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of it its child spans cover, in ns.
func (t *tracer) selfTimes(name string) []float64 {
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(s.Start, s.End, children[int32(i)])))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, ss []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}

// ledgerRow is one span name's share of an operation kind's wall time.
type ledgerRow struct {
	Name string
	// WallMS is the operation wall time attributed to the span name per
	// operation: at every instant the innermost open spans share it.
	WallMS float64
	// Share is WallMS over the operation's mean wall time.
	Share float64
	// BusyMS is the span name's self time per operation, summed over
	// concurrent spans (so parallel workers can exceed the wall).
	BusyMS float64
}

// ledger is the traced run's per-operation-kind account of wall time.
type ledger struct {
	Kind     string
	Ops      int
	WallMS   float64 // mean operation wall time
	Coverage float64 // share of operation wall time inside any layer span
	Rows     []ledgerRow
}

// ledgers partitions each operation's wall time over its spans. Within an
// operation, every instant is split equally between the innermost spans
// open at that instant; instants inside no span other than the root are
// uncovered. Operation kinds are the root span names.
func (t *tracer) ledgers() []ledger {
	byOp := map[int32][]int{}
	for i, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	type acc struct {
		ops           int
		wall, covered int64
		attr, busy    map[string]float64
	}
	kinds := map[string]*acc{}
	var kindOrder []string
	ops := make([]int32, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		idxs := byOp[op]
		root := -1
		for _, i := range idxs {
			if t.spans[i].Parent < 0 {
				root = i
				break
			}
		}
		if root < 0 {
			continue
		}
		rs := t.spans[root]
		a := kinds[rs.Name]
		if a == nil {
			a = &acc{attr: map[string]float64{}, busy: map[string]float64{}}
			kinds[rs.Name] = a
			kindOrder = append(kindOrder, rs.Name)
		}
		a.ops++
		a.wall += rs.End - rs.Start
		c, attr, busy := t.attribute(root, idxs)
		a.covered += c
		for k, v := range attr {
			a.attr[k] += v
		}
		for k, v := range busy {
			a.busy[k] += v
		}
	}
	var out []ledger
	for _, k := range kindOrder {
		a := kinds[k]
		l := ledger{Kind: k, Ops: a.ops}
		l.WallMS = float64(a.wall) / float64(a.ops) / 1e6
		l.Coverage = ratio(float64(a.covered), float64(a.wall))
		names := make([]string, 0, len(a.busy))
		for n := range a.busy {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			w := a.attr[n] / float64(a.ops) / 1e6
			l.Rows = append(l.Rows, ledgerRow{
				Name:   n,
				WallMS: w,
				Share:  ratio(w, l.WallMS),
				BusyMS: a.busy[n] / float64(a.ops) / 1e6,
			})
		}
		sort.SliceStable(l.Rows, func(i, j int) bool { return l.Rows[i].WallMS > l.Rows[j].WallMS })
		out = append(out, l)
	}
	return out
}

// attribute splits one operation's wall time over its non-root spans and
// returns the covered time, the wall time per span name and the self time
// per span name.
func (t *tracer) attribute(root int, idxs []int) (int64, map[string]float64, map[string]float64) {
	rs := t.spans[root]
	type event struct {
		at   int64
		idx  int
		open bool
	}
	var evs []event
	children := map[int][]span{}
	for _, i := range idxs {
		if i == root {
			continue
		}
		s := t.spans[i]
		a, b := max(s.Start, rs.Start), min(s.End, rs.End)
		if b > a {
			evs = append(evs, event{a, i, true}, event{b, i, false})
		}
		if s.Parent >= 0 {
			children[int(s.Parent)] = append(children[int(s.Parent)], s)
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].open && evs[j].open // close before open at a tie
	})
	attr := map[string]float64{}
	busy := map[string]float64{}
	for _, i := range idxs {
		if i == root {
			continue
		}
		s := t.spans[i]
		busy[s.Name] += float64(s.End - s.Start - covered(s.Start, s.End, children[i]))
	}
	active := map[int]bool{}
	openKids := map[int]int{}
	var cov int64
	prev := rs.Start
	for _, ev := range evs {
		if d := ev.at - prev; d > 0 && len(active) > 0 {
			var leaves []int
			for i := range active {
				if openKids[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			cov += d
			for _, i := range leaves {
				attr[t.spans[i].Name] += float64(d) / float64(len(leaves))
			}
		}
		prev = ev.at
		p := int(t.spans[ev.idx].Parent)
		if ev.open {
			active[ev.idx] = true
			if p != root && p >= 0 {
				openKids[p]++
			}
		} else {
			delete(active, ev.idx)
			if p != root && p >= 0 {
				openKids[p]--
			}
		}
	}
	return cov, attr, busy
}

// writeLedger prints the per-layer table of each operation kind.
func writeLedger(w io.Writer, workload string, ls []ledger) {
	for _, l := range ls {
		flag := ""
		if l.Coverage < 0.95 {
			flag = "  LOW COVERAGE (< 0.95)"
		}
		fmt.Fprintf(w, "ledger %s/%s: %d ops, %.3f ms/op, coverage %.3f%s\n",
			workload, strings.TrimPrefix(l.Kind, "op."), l.Ops, l.WallMS, l.Coverage, flag)
		if len(l.Rows) > 0 {
			fmt.Fprintf(w, "  dominant layer span %s: %.1f%% of wall time\n", l.Rows[0].Name, 100*l.Rows[0].Share)
		}
		fmt.Fprintf(w, "  %-28s %12s %8s %12s\n", "span", "wall ms/op", "share", "self ms/op")
		for _, r := range l.Rows {
			fmt.Fprintf(w, "  %-28s %12.4f %8.4f %12.4f\n", r.Name, r.WallMS, r.Share, r.BusyMS)
		}
	}
}

// writeSpans writes every span as one JSON line, after the run.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
