package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/serve"
	"hdface/internal/tenant"
)

// TenantBenchReport is the BENCH_tenant.json schema
// (hdface-bench-tenant/v1): the cost of keeping thousands of per-tenant
// model versions resident as compact seeds-only blobs, and what serving
// them lazily costs at request time.
type TenantBenchReport struct {
	Schema  string `json:"schema"`
	D       int    `json:"d"`
	K       int    `json:"k"`
	NumCPU  int    `json:"num_cpu"`
	Tenants int    `json:"tenants"`
	// Versions counts model versions resident in the store after populate
	// (compact blobs, not materialized models).
	Versions int `json:"versions"`

	// BytesPerModel is the compact v2 blob size (config + quantized class
	// memory + binarized words); V1SnapshotBytes the float-gob v1 size of
	// the same model.
	BytesPerModel    int     `json:"bytes_per_model"`
	V1SnapshotBytes  int     `json:"v1_snapshot_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`

	PopulateMS  float64 `json:"populate_ms"`
	StoreOpenMS float64 `json:"store_open_ms"` // reopen with Versions blobs resident

	ColdMaterializeP50MS float64 `json:"cold_materialize_p50_ms"`
	ColdMaterializeP99MS float64 `json:"cold_materialize_p99_ms"`

	HotSwapP50MS float64 `json:"hot_swap_p50_ms"`
	HotSwapP99MS float64 `json:"hot_swap_p99_ms"`

	// Steady-state HTTP serving with requests spread over ServeTenants
	// active tenants.
	ServeTenants   int     `json:"serve_tenants"`
	ServeRequests  int     `json:"serve_requests"`
	ServeReqPerSec float64 `json:"serve_req_per_sec"`
	ServeP50MS     float64 `json:"serve_p50_ms"`
	ServeP99MS     float64 `json:"serve_p99_ms"`

	// LazyEagerByteIdentical asserts the holographic round trip: a lazily
	// materialized compact version scores bit-for-bit like the eagerly
	// decoded v1 float snapshot on the binary Hamming path.
	LazyEagerByteIdentical bool `json:"lazy_eager_byte_identical"`
	// QuantPredictAgreement is the fraction of probes where the quantized
	// float path agrees with the exact v1 float path on the argmax label.
	QuantPredictAgreement float64 `json:"quant_predict_agreement"`

	MaterializedBytes int64 `json:"materialized_bytes"`
	BudgetBytes       int64 `json:"budget_bytes"`
	Evictions         int64 `json:"evictions"`
}

// TenantBench measures the compact seeds-only tenant store end to end:
// bytes per model at D=2048, open time with ~1000 versions resident,
// cold-materialization and hot-swap latency, steady-state HTTP throughput
// with 100+ active tenants, and the lazy-vs-eager byte-identity claim.
// D stays 2048 in quick mode — the CI gates (bytes/model <= 64KB, hot-swap
// p99 < 1ms) are dimensioned against it; quick cuts only the counts.
func TenantBench(w io.Writer, o Options) error {
	o = o.withDefaults()
	section(w, "compact multi-tenant model store benchmark")

	const d, win = 2048, 48
	nTenants, serveTenants, serveRequests, clients := 1000, 128, 512, 8
	if o.Quick {
		nTenants, serveTenants, serveRequests, clients = 128, 100, 128, 4
	}

	// One trained binary face/non-face pipeline: the shared base every
	// tenant lineage starts from.
	r := hv.NewRNG(o.Seed ^ 0x7e4a)
	var imgs []*imgproc.Image
	var labels []int
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(win, win, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(win, win, r))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: d, Seed: o.Seed, Workers: 1, WorkingSize: win, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	cfg, model := p.Config(), p.Model()

	// Footprint: compact v2 vs float v1 of the identical model.
	var v1, v2 bytes.Buffer
	if err := hdface.EncodeSnapshot(&v1, cfg, model); err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	if err := hdface.EncodeSnapshotV2(&v2, cfg, model); err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	report := TenantBenchReport{
		Schema:           "hdface-bench-tenant/v1",
		D:                d,
		K:                model.K,
		NumCPU:           runtime.NumCPU(),
		Tenants:          nTenants,
		BytesPerModel:    v2.Len(),
		V1SnapshotBytes:  v1.Len(),
		CompressionRatio: float64(v1.Len()) / float64(v2.Len()),
	}

	// Populate: one compact version per tenant, persisted.
	dir, err := os.MkdirTemp("", "tenantbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := tenant.Open(tenant.Config{Dir: dir})
	if err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	t0 := time.Now()
	for i := 0; i < nTenants; i++ {
		if _, err := store.Seed(fmt.Sprintf("t%04d", i), cfg, model); err != nil {
			return fmt.Errorf("tenantbench: seed tenant %d: %w", i, err)
		}
	}
	report.PopulateMS = msSince(t0)
	report.Versions = store.Stats().Versions

	// Store open time with every version on disk: header-only indexing is
	// what makes thousands of versions cheap to adopt at process start.
	t0 = time.Now()
	store, err = tenant.Open(tenant.Config{Dir: dir})
	if err != nil {
		return fmt.Errorf("tenantbench: reopen: %w", err)
	}
	report.StoreOpenMS = msSince(t0)

	// Cold materialization: first Model() per tenant decodes the blob.
	sample := nTenants
	if sample > 256 {
		sample = 256
	}
	cold := make([]time.Duration, 0, sample)
	for i := 0; i < sample; i++ {
		t0 = time.Now()
		if _, _, err := store.Model(fmt.Sprintf("t%04d", i)); err != nil {
			return fmt.Errorf("tenantbench: materialize: %w", err)
		}
		cold = append(cold, time.Since(t0))
	}
	report.ColdMaterializeP50MS = durPctMS(cold, 0.50)
	report.ColdMaterializeP99MS = durPctMS(cold, 0.99)

	// Hot swap: Promote is one durable LIVE-file write (temp file fsync,
	// rename, directory fsync) plus one pointer store; retention deletion
	// runs in the Put before it, and scoring never waits on either.
	// Measured on the persistent store — the gate is sub-millisecond
	// including both fsyncs.
	swapTenant := "t0000"
	const swapWarm, swapIters = 20, 500
	swaps := make([]time.Duration, 0, swapIters)
	for i := 0; i < swapWarm+swapIters; i++ {
		id, err := store.Put(swapTenant, cfg, model)
		if err != nil {
			return fmt.Errorf("tenantbench: swap put: %w", err)
		}
		t0 = time.Now()
		if err := store.Promote(swapTenant, id); err != nil {
			return fmt.Errorf("tenantbench: swap promote: %w", err)
		}
		if i >= swapWarm {
			swaps = append(swaps, time.Since(t0))
		}
	}
	report.HotSwapP50MS = durPctMS(swaps, 0.50)
	report.HotSwapP99MS = durPctMS(swaps, 0.99)

	// Byte-identity: eagerly decode the v1 float snapshot, lazily
	// materialize the tenant's compact version, and compare the binary
	// Hamming scoring path bit for bit over probe features. The quantized
	// float path is additionally checked for argmax agreement.
	_, eager, err := hdface.DecodeSnapshot(bytes.NewReader(v1.Bytes()))
	if err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	_, lazy, err := store.Model("t0001")
	if err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	identical := true
	for c := range eager.Bin {
		ew, lw := eager.Bin[c].Words(), lazy.Bin[c].Words()
		for i := range ew {
			if ew[i] != lw[i] {
				identical = false
			}
		}
	}
	agree := 0
	for _, img := range imgs {
		f := p.Feature(img)
		ef, es := eager.ScoreBinaryHamming(f)
		lf, ls := lazy.ScoreBinaryHamming(f)
		if ef != lf || math.Float64bits(es) != math.Float64bits(ls) {
			identical = false
		}
		if eager.Predict(f) == lazy.Predict(f) {
			agree++
		}
	}
	report.LazyEagerByteIdentical = identical
	report.QuantPredictAgreement = float64(agree) / float64(len(imgs))

	// Steady state: HTTP /predict traffic round-robined over the first
	// serveTenants tenants of the populated store.
	srv, err := serve.New(serve.Config{Pipeline: p, Tenants: store, MaxBatch: 8, MaxQueue: 1024})
	if err != nil {
		return fmt.Errorf("tenantbench: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	var probe bytes.Buffer
	if err := imgs[0].WritePGM(&probe); err != nil {
		return err
	}
	probeBytes := probe.Bytes()
	lats := make([]time.Duration, serveRequests)
	codes := make([]int, serveRequests)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < serveRequests; i += clients {
				url := fmt.Sprintf("%s/predict?tenant=t%04d", ts.URL, i%serveTenants)
				t0 := time.Now()
				resp, err := http.Post(url, "image/x-portable-graymap", bytes.NewReader(probeBytes))
				if err != nil {
					codes[i] = -1
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lats[i] = time.Since(t0)
				codes[i] = resp.StatusCode
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	ts.Close()
	srv.Close()
	var okLats []time.Duration
	for i, code := range codes {
		if code == http.StatusOK {
			okLats = append(okLats, lats[i])
		} else if code != http.StatusServiceUnavailable {
			return fmt.Errorf("tenantbench: request %d got status %d", i, code)
		}
	}
	if len(okLats) == 0 {
		return fmt.Errorf("tenantbench: every serve request failed")
	}
	report.ServeTenants = serveTenants
	report.ServeRequests = len(okLats)
	report.ServeReqPerSec = float64(len(okLats)) / wall.Seconds()
	report.ServeP50MS = durPctMS(okLats, 0.50)
	report.ServeP99MS = durPctMS(okLats, 0.99)

	st := store.Stats()
	report.MaterializedBytes = st.MaterializedBytes
	report.BudgetBytes = st.BudgetBytes
	report.Evictions = st.Evictions
	report.Versions = st.Versions

	fmt.Fprintf(w, "bytes/model: %d compact vs %d v1 (%.1fx)\n",
		report.BytesPerModel, report.V1SnapshotBytes, report.CompressionRatio)
	fmt.Fprintf(w, "%d tenants, %d versions resident; open %.1fms, populate %.1fms\n",
		report.Tenants, report.Versions, report.StoreOpenMS, report.PopulateMS)
	fmt.Fprintf(w, "cold materialize p50=%.3fms p99=%.3fms; hot swap p50=%.3fms p99=%.3fms\n",
		report.ColdMaterializeP50MS, report.ColdMaterializeP99MS, report.HotSwapP50MS, report.HotSwapP99MS)
	fmt.Fprintf(w, "serve: %d tenants %6.1f req/s p50=%.1fms p99=%.1fms\n",
		report.ServeTenants, report.ServeReqPerSec, report.ServeP50MS, report.ServeP99MS)
	fmt.Fprintf(w, "lazy==eager (Hamming path): %v; quantized predict agreement: %.2f\n",
		report.LazyEagerByteIdentical, report.QuantPredictAgreement)

	dir2 := o.OutDir
	if dir2 == "" {
		dir2 = "."
	}
	path := filepath.Join(dir2, "BENCH_tenant.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// durPctMS returns the q-th percentile of durations in milliseconds.
func durPctMS(lats []time.Duration, q float64) float64 {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e6
}
