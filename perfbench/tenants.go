package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
	"hdface/internal/serve"
	"hdface/internal/tenant"
)

// tenants-mixed: serve.Server.Handler called in-process, after a warm-up,
// in two phases. The open phase sends seeded Poisson arrivals at one fixed
// rate, the same on every commit and well under capacity, one goroutine per
// due request, so queueing happens in the daemon's admission queue. The
// closed phase runs nproc callers, each sending its next operation when the
// last one returns. About 80% of operations are /predict on 48x48 PGMs (10%
// of those without a tenant, so the registry path runs too; the rest pick
// one of the tenants by Zipf popularity) and 20% are JSON /feedback
// corrections of earlier tenant responses carrying the true label, so
// tenant rounds run during the measurement. The tenant store is the
// in-memory one, so no phase waits on a disk.

const (
	predictShare    = 0.8
	untenantedShare = 0.1
	zipfS           = 1.1
	// tenantFeedbackBatch is the tenant store's default round size (the
	// serve subcommand's -tenant-batch).
	tenantFeedbackBatch = 16
	// openShare is the open phase's share of the run after the warm-up;
	// the closed phase takes the rest.
	openShare = 0.75
	// tenantsRounds is how many times the open and closed phases alternate.
	tenantsRounds = 4
)

type tenantsConfig struct {
	D       int
	Tenants int
	TrainN  int // base classifier training set
	Images  int // request image pool
	// EvalImages is the size of the fixed labelled pool quality is
	// scored on.
	EvalImages int
	Warmup     time.Duration
	// Rate is the open phase's arrival rate, in operations per second.
	Rate float64
}

func tenantsSizes(tiny bool) tenantsConfig {
	if tiny {
		return tenantsConfig{D: 512, Tenants: 12, TrainN: 24, Images: 32, EvalImages: 16, Warmup: 200 * time.Millisecond, Rate: 20}
	}
	return tenantsConfig{D: 2048, Tenants: 256, TrainN: 160, Images: 256, EvalImages: 128, Warmup: 1500 * time.Millisecond, Rate: 50}
}

type tenantsSetup struct {
	p      *hdface.Pipeline
	model  *hdc.Model
	store  *tenant.Store
	srv    *serve.Server
	ids    []string
	pgms   [][]byte
	labels []int
	// evalPGMs and evalLabels are the fixed labelled quality pool.
	evalPGMs   [][]byte
	evalLabels []int
}

func (s *tenantsSetup) fingerprint() uint64 { return s.model.Fingerprint() }
func (s *tenantsSetup) close()              { s.srv.Close() }

// trainClassifier fits the shared face/non-face base model every tenant
// lineage starts from.
func trainClassifier(cfg tenantsConfig) (*hdface.Pipeline, error) {
	r := hv.NewRNG(modelSeed ^ 0x7e4a)
	var imgs []*imgproc.Image
	var labels []int
	for i := 0; i < cfg.TrainN; i++ {
		img, label := renderRequest(r, i)
		imgs = append(imgs, img)
		labels = append(labels, label)
	}
	p := hdface.New(hdface.Config{D: cfg.D, Seed: modelSeed, Workers: runtime.NumCPU(), WorkingSize: win, Stride: hogStride})
	if err := p.FitContext(context.Background(), imgs, labels, 2); err != nil {
		return nil, fmt.Errorf("train classifier: %w", err)
	}
	return p, nil
}

// renderRequest renders the i-th labelled request image: a face for even
// i (label 1), clutter for odd i (label 0).
func renderRequest(r *hv.RNG, i int) (*imgproc.Image, int) {
	if i%2 == 0 {
		return dataset.RenderFace(win, win, dataset.Emotion(r.Intn(int(dataset.NumEmotions))), r), 1
	}
	return dataset.RenderNonFace(win, win, r), 0
}

// requestPool renders n labelled request images from seed as PGMs.
func requestPool(seed uint64, n int) ([][]byte, []int, error) {
	r := hv.NewRNG(seed)
	pgms := make([][]byte, n)
	labels := make([]int, n)
	for i := range pgms {
		img, label := renderRequest(r, i)
		var b bytes.Buffer
		if err := img.WritePGM(&b); err != nil {
			return nil, nil, err
		}
		pgms[i], labels[i] = b.Bytes(), label
	}
	return pgms, labels, nil
}

func newTenantsSetup(cfg tenantsConfig, seed uint64) (*tenantsSetup, error) {
	p, err := trainClassifier(cfg)
	if err != nil {
		return nil, err
	}
	s := &tenantsSetup{p: p, model: p.Model()}
	// A quarter of the tenants' models fit the store's budget: measure one
	// materialized model in a scratch store.
	probe, err := tenant.Open(tenant.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := probe.Seed("probe", p.Config(), s.model); err != nil {
		return nil, err
	}
	if _, _, err := probe.Model("probe"); err != nil {
		return nil, err
	}
	budget := probe.Stats().MaterializedBytes * int64(cfg.Tenants) / 4

	// No Dir: versions, rounds' Put and Promote stay in memory.
	s.store, err = tenant.Open(tenant.Config{
		BudgetBytes:   budget,
		FeedbackBatch: tenantFeedbackBatch,
		TrainOpts:     p.Config().Train,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Tenants; i++ {
		id := fmt.Sprintf("t%03d", i)
		if _, err := s.store.Seed(id, p.Config(), s.model); err != nil {
			return nil, err
		}
		s.ids = append(s.ids, id)
	}
	if s.pgms, s.labels, err = requestPool(seed^0x9e9, cfg.Images); err != nil {
		return nil, err
	}
	if s.evalPGMs, s.evalLabels, err = requestPool(evalSeed, cfg.EvalImages); err != nil {
		return nil, err
	}
	if s.srv, err = serve.New(serve.Config{Pipeline: p, Tenants: s.store}); err != nil {
		return nil, err
	}
	return s, nil
}

// arrival is one scheduled operation.
type arrival struct {
	due      time.Duration // since the phase start
	feedback bool
	tenant   int // index into the tenant IDs; -1 sends no tenant
	img      int
	pick     uint64 // feedback: which recent response to correct
}

// mix draws the operation mix: the kind of each operation, its tenant and
// its image.
type mix struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	imgs int
}

func newMix(seed, stream uint64, tenants, images int) *mix {
	rng := rand.New(rand.NewPCG(seed, stream))
	return &mix{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(tenants-1)), imgs: images}
}

// next draws one operation; its due time is left to the caller.
func (m *mix) next() arrival {
	a := arrival{tenant: -1}
	if m.rng.Float64() >= predictShare {
		a.feedback = true
		a.pick = m.rng.Uint64()
		return a
	}
	a.img = m.rng.IntN(m.imgs)
	if m.rng.Float64() >= untenantedShare {
		a.tenant = int(m.zipf.Uint64())
	}
	return a
}

// schedule draws the arrivals of a Poisson process at rate ops/s over dur,
// conditioned on its expected count: round(rate x dur) arrival times drawn
// uniformly and sorted. Conditioning keeps the bursts of a Poisson process
// while every seed offers the same load. The operation mix is drawn per
// arrival, from the workload seed and a phase number.
func schedule(seed, phase uint64, rate float64, dur time.Duration, tenants, images int) []arrival {
	m := newMix(seed, phase, tenants, images)
	dues := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range dues {
		dues[i] = time.Duration(m.rng.Int64N(int64(dur)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	out := make([]arrival, len(dues))
	for i, due := range dues {
		out[i] = m.next()
		out[i].due = due
	}
	return out
}

// opResult is one executed operation.
type opResult struct {
	feedback       bool
	skipped        bool // feedback with no earlier response to correct yet
	tenant         string
	due, sent      time.Time
	done           time.Time
	ok             bool
	newVersion     uint64
	traceID        string
	attributionBad bool
}

// target is an earlier tenant response a feedback operation can correct.
type target struct {
	reqID, tenant string
	label         int
}

// loadgen runs schedules against the daemon's handler in-process.
type loadgen struct {
	s *tenantsSetup
	h http.Handler

	mu     sync.Mutex
	recent []target // ring of the latest tenant responses
	pos    int
}

const recentTargets = 256

func (lg *loadgen) remember(t target) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if len(lg.recent) < recentTargets {
		lg.recent = append(lg.recent, t)
		return
	}
	lg.recent[lg.pos] = t
	lg.pos = (lg.pos + 1) % recentTargets
}

func (lg *loadgen) pick(k uint64) (target, bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if len(lg.recent) == 0 {
		return target{}, false
	}
	return lg.recent[k%uint64(len(lg.recent))], true
}

// run sends every arrival at its due time on its own goroutine, waits for
// all of them, and returns the results. traceTag, when set, names each
// predict's trace so the traced run can find it in the daemon's collector.
func (lg *loadgen) run(sched []arrival, traceTag string) []opResult {
	res := make([]opResult, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.due)
		waitUntil(due)
		id := ""
		if traceTag != "" {
			id = fmt.Sprintf("%s-%d", traceTag, i)
		}
		wg.Add(1)
		go func(i int, a arrival, due, sent time.Time) {
			defer wg.Done()
			res[i] = lg.do(a, due, sent, id)
		}(i, a, due, time.Now())
	}
	wg.Wait()
	return res
}

// spinAhead is how long before a due time the load generator stops
// sleeping and yields in a loop instead: the runtime's timers wake up to a
// millisecond late, which would add the generator's own lag to every
// latency timed from its due time.
const spinAhead = 1500 * time.Microsecond

// waitUntil returns at t, or at once if t has passed.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (lg *loadgen) do(a arrival, due, sent time.Time, traceID string) opResult {
	res := opResult{feedback: a.feedback, due: due, sent: sent}
	if a.feedback {
		t, ok := lg.pick(a.pick)
		if !ok {
			res.skipped = true
			return res
		}
		res.tenant = t.tenant
		body := fmt.Sprintf(`{"request_id":%q,"label":%d}`, t.reqID, t.label)
		req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.TenantHeader, t.tenant)
		rec := httptest.NewRecorder()
		lg.h.ServeHTTP(rec, req)
		res.done = time.Now()
		var fr serve.FeedbackResponse
		if rec.Code == http.StatusAccepted && json.Unmarshal(rec.Body.Bytes(), &fr) == nil {
			res.ok = true
			res.attributionBad = fr.Tenant != t.tenant
			res.newVersion = fr.NewVersion
		}
		return res
	}
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(lg.s.pgms[a.img]))
	if a.tenant >= 0 {
		res.tenant = lg.s.ids[a.tenant]
		req.Header.Set(serve.TenantHeader, res.tenant)
	}
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	rec := httptest.NewRecorder()
	lg.h.ServeHTTP(rec, req)
	res.done = time.Now()
	var pr serve.PredictResponse
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &pr) == nil {
		res.ok = true
		res.traceID = pr.TraceID
		res.attributionBad = pr.Tenant != res.tenant || pr.ModelVersion == 0
		if res.tenant != "" && pr.RequestID != "" {
			lg.remember(target{reqID: pr.RequestID, tenant: res.tenant, label: lg.s.labels[a.img]})
		}
	}
	return res
}

// closed runs callers closed-loop callers for dur: caller c draws its
// operations from stream first+c of the workload seed and sends the next
// one when the last returns. It returns every operation and the phase's
// wall time, up to the last caller's return.
func (lg *loadgen) closed(seed, first uint64, callers int, dur time.Duration) ([]opResult, time.Duration) {
	per := make([][]opResult, callers)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m := newMix(seed, closedStream+first+uint64(c), len(lg.s.ids), len(lg.s.pgms))
			for now := time.Now(); now.Before(end); now = time.Now() {
				per[c] = append(per[c], lg.do(m.next(), now, now, ""))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var res []opResult
	for _, ops := range per {
		res = append(res, ops...)
	}
	return res, wall
}

// closedStream numbers the closed phase's callers' mix streams apart from
// the open phases' schedules.
const closedStream = 1 << 16

// phaseStats summarises one phase's operations.
type phaseStats struct {
	attempted, failed, bad int64
	predictLat, writeLat   []float64 // ms from due
}

func summarise(res []opResult) phaseStats {
	var st phaseStats
	for _, r := range res {
		if r.skipped {
			continue
		}
		st.attempted++
		if !r.ok || r.attributionBad {
			st.failed++
			if r.attributionBad {
				st.bad++
			}
			continue
		}
		lat := ms(r.done.Sub(r.due))
		if r.feedback {
			st.writeLat = append(st.writeLat, lat)
		} else {
			st.predictLat = append(st.predictLat, lat)
		}
	}
	return st
}

// tenantsQuality sends the fixed labelled pool through /predict, one
// request at a time and each to the next tenant in turn, before any
// feedback has changed a tenant's model, and reports the accuracy as
// quality.
func tenantsQuality(r *report, lg *loadgen, tiny bool) {
	s := lg.s
	correct, failed := 0, 0
	for i, pgm := range s.evalPGMs {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(pgm))
		req.Header.Set(serve.TenantHeader, s.ids[i%len(s.ids)])
		rec := httptest.NewRecorder()
		lg.h.ServeHTTP(rec, req)
		var pr serve.PredictResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pr) != nil {
			failed++
			continue
		}
		if pr.Label == s.evalLabels[i] {
			correct++
		}
	}
	q := ratio(float64(correct), float64(len(s.evalPGMs)))
	r.printf("quality: accuracy %.4f over the %d images of the evaluation pool", q, len(s.evalPGMs))
	r.set("quality", q)
	r.check("tenants_quality_requests", failed == 0, "%d of %d evaluation requests failed", failed, len(s.evalPGMs))
	if !tiny {
		r.check("tenants_quality_floor", q >= 0.8, "accuracy %.3f (floor 0.8)", q)
	}
}

func runTenantsMixed(o options, r *report) error {
	cfg := tenantsSizes(o.tiny)
	callers := runtime.NumCPU()
	r.printf("workload tenants-mixed: in-process handler; %d tenants (Zipf s=%g), %.0f%% predict (%.0f%% untenanted), %.0f%% feedback, store budget = 1/4 of models, round size %d, D=%d; open phase Poisson %.0f/s, closed phase %d callers",
		cfg.Tenants, zipfS, 100*predictShare, 100*untenantedShare, 100*(1-predictShare), tenantFeedbackBatch, cfg.D, cfg.Rate, callers)
	s, err := repeatSetup(r, func() (*tenantsSetup, error) { return newTenantsSetup(cfg, o.seed) })
	if err != nil {
		return fmt.Errorf("tenants-mixed setup: %w", err)
	}
	defer s.close()
	lg := &loadgen{s: s, h: s.srv.Handler()}
	if !o.trace {
		tenantsQuality(r, lg, o.tiny)
	}
	total := time.Duration(o.seconds * float64(time.Second))

	// Warm-up at the open rate: fills the tenant cache and gives the first
	// feedback operations responses to correct.
	lg.run(schedule(o.seed, 0, cfg.Rate, cfg.Warmup, cfg.Tenants, cfg.Images), "")
	if o.trace {
		return tracedTenants(o, r, lg, cfg, (total-cfg.Warmup)/2)
	}

	// The phases alternate over tenantsRounds rounds, so that each samples
	// the host across the whole run rather than one stretch of it.
	open := time.Duration(float64(total-cfg.Warmup) * openShare / tenantsRounds)
	closed := (total-cfg.Warmup)/tenantsRounds - open
	var res, cres []opResult
	var wall time.Duration
	for k := 0; k < tenantsRounds; k++ {
		res = append(res, lg.run(schedule(o.seed, uint64(1+k), cfg.Rate, open, cfg.Tenants, cfg.Images), "")...)
		c, w := lg.closed(o.seed, uint64(k*callers), callers, closed)
		cres, wall = append(cres, c...), wall+w
	}
	r.measured()

	st := summarise(res)
	r.phase(fmt.Sprintf("open %.0f/s", cfg.Rate), st.attempted, st.failed)
	tl := tailOf(st.predictLat)
	r.printf("open: predict latency from due p50 %.3f ms, tail %s over %d; feedback p50 %.3f ms over %d",
		median(st.predictLat), tl, tl.N, median(st.writeLat), len(st.writeLat))
	r.set("latency_p50_ms", median(st.predictLat))
	r.set("latency_tail_ms", tl.Value)
	r.set("write_p50_ms", median(st.writeLat))
	cst := summarise(cres)
	r.phase(fmt.Sprintf("closed %d callers", callers), cst.attempted, cst.failed)
	done := cst.attempted - cst.failed
	r.printf("closed: %d operations in %.3f s; predict p50 %.3f ms, feedback p50 %.3f ms",
		done, wall.Seconds(), median(cst.predictLat), median(cst.writeLat))
	r.set("throughput_per_s", float64(done)/wall.Seconds())

	attempted, failed := st.attempted+cst.attempted, st.failed+cst.failed
	r.set("ok_frac", 1-ratio(float64(failed), float64(attempted)))
	tenantsChecks(r, attempted, failed, st.bad+cst.bad)
	return nil
}

// tenantsChecks checks that no operation of the measured phases failed and
// that every response carried its tenant and model version.
func tenantsChecks(r *report, attempted, failed, bad int64) {
	r.check("tenants_ops_ok", failed == 0, "%d of %d operations failed", failed, attempted)
	r.check("tenants_attribution", bad == 0, "%d responses without tenant/model_version attribution", bad)
}

// tracedTenants runs the open phase twice on the same schedule, untraced
// and then with every predict traced: the benchmark names each request's
// trace, copies it out of the daemon's collector before its ring wraps,
// and files its spans under the operation alongside the load generator's
// own lag.
func tracedTenants(o options, r *report, lg *loadgen, cfg tenantsConfig, dur time.Duration) error {
	sched := schedule(o.seed, 1, cfg.Rate, dur, cfg.Tenants, cfg.Images)
	w0, g0 := lg.s.p.Work(), readGo()
	untraced := lg.run(sched, "")
	w1, g1 := lg.s.p.Work(), readGo()
	r.measured()
	ust := summarise(untraced)
	r.phase(fmt.Sprintf("open %.0f/s (untraced)", cfg.Rate), ust.attempted, ust.failed)
	r.setGo(g0, g1, int(ust.attempted))
	setStochCounts(r, w0, w1, int(ust.attempted))
	var lags []float64
	for _, x := range untraced {
		if !x.skipped {
			lags = append(lags, ms(x.sent.Sub(x.due)))
		}
	}
	r.set("loadgen.lag_ms", median(lags))

	found := map[string]trace.ExportTrace{}
	var mu sync.Mutex
	harvest := func() {
		for _, t := range trace.Snapshot(trace.Filter{Kind: "predict", Limit: 256}).Traces {
			if strings.HasPrefix(t.TraceID, "pb-") {
				mu.Lock()
				found[t.TraceID] = t
				mu.Unlock()
			}
		}
	}
	stop := make(chan struct{})
	harvested := make(chan struct{})
	go func() {
		defer close(harvested)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				harvest()
			case <-stop:
				return
			}
		}
	}()
	c0 := obs.TakeSnapshot().Counters
	e0 := lg.s.store.Stats().Evictions
	res := lg.run(sched, "pb")
	close(stop)
	<-harvested
	harvest()
	c1 := obs.TakeSnapshot().Counters
	e1 := lg.s.store.Stats().Evictions
	st := summarise(res)
	r.phase(fmt.Sprintf("open %.0f/s (traced)", cfg.Rate), st.attempted, st.failed)

	tr := newTracer()
	var missing, tenanted int
	var rounds, appends []float64
	for i, x := range res {
		if x.skipped {
			continue
		}
		op := int32(i)
		if x.feedback {
			root := tr.add("op.feedback", x.due, x.done, -1, op)
			tr.add("loadgen.lag", x.due, x.sent, root, op)
			tr.add("tenant.feedback", x.sent, x.done, root, op)
			if x.newVersion != 0 {
				rounds = append(rounds, ms(x.done.Sub(x.sent)))
			} else {
				appends = append(appends, ms(x.done.Sub(x.sent)))
			}
			continue
		}
		if x.tenant != "" {
			tenanted++
		}
		t, ok := found[x.traceID]
		if !ok {
			missing++
			continue
		}
		root := tr.add("op.predict", x.due, x.done, -1, op)
		tr.add("loadgen.lag", x.due, x.sent, root, op)
		copyDaemonTrace(tr, op, root, t, x.sent, x.done, daemonSpanNames)
	}
	r.check("tenants_traces_found", missing == 0, "%d of %d predict traces missing from the collector", missing, len(st.predictLat))

	tenantsChecks(r, ust.attempted+st.attempted, ust.failed+st.failed, ust.bad+st.bad)
	r.set("trace.overhead", ratio(median(st.predictLat), median(ust.predictLat)))

	r.set("serve.queue_wait_ms", median(tr.durations("serve.queue_wait"))/1e6)
	r.set("serve.batch_wait_ms", median(tr.durations("serve.batch_wait"))/1e6)
	r.set("serve.inference_ms", median(tr.durations("serve.inference"))/1e6)
	r.set("serve.outside_ms", median(tr.perOp("serve.transport"))/1e6)
	r.set("serve.batch_size", ratio(float64(c1[counterBatchImgs]-c0[counterBatchImgs]), float64(c1[counterBatches]-c0[counterBatches])))
	r.set("serve.rejected", float64(c1[counterRejected]-c0[counterRejected]))
	r.set("tenant.hit_ratio", 1-ratio(float64(c1[counterMaterialize]-c0[counterMaterialize]), float64(tenanted)))
	r.set("tenant.evictions", float64(e1-e0))
	r.set("tenant.rounds", float64(len(rounds)))
	r.set("tenant.round_ms", median(rounds))
	r.set("tenant.append_ms", median(appends))

	ls := tr.ledgers()
	writeLedger(r.w, o.workload, ls)
	setCoverage(r, ls)
	if err := tr.writeSpans(filepath.Join(o.out, "spans-"+o.workload+".ndjson")); err != nil {
		return err
	}
	img, err := imgproc.ReadPGM(bytes.NewReader(lg.s.pgms[0]))
	if err != nil {
		return err
	}
	return microLayers(r, microInputs{cfg: lg.s.p.Config(), model: lg.s.model, pixels: img.Resize(2*win, 2*win)})
}

// Names of the daemon's and the tenant store's existing counters.
const (
	counterBatches     = "hdface_serve_batches_total"
	counterBatchImgs   = "hdface_serve_batched_images_total"
	counterMaterialize = "hdface_tenant_materializations_total"
)
