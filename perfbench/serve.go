package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zkphire"
	"zkphire/internal/service"
)

// runServe drives zkphired — one single-role daemon, or a coordinator
// with two one-worker workers — with an open-loop Poisson load over at
// most nproc connections. Latency is timed from each request's scheduled
// send time, so a stall counts against every later request.
func runServe(cfg config, cluster bool) (*outcome, error) {
	if cfg.zkphired == "" {
		return nil, errors.New("serve workloads need -zkphired")
	}
	sz := cfg.sz
	shapes := poolShapes(sz.poolSize, sz.poolLogGates)
	pr := newRand(cfg.seed, streamPool)
	specs := make([]service.CircuitSpec, len(shapes))
	for i, sh := range shapes {
		specs[i] = genSpec(pr, sh)
	}
	reqs := genRequests(cfg.seed, sz.rate, cfg.seconds, sz.poolSize)
	srsVars := sz.poolLogGates + 1
	srsSeed := cfg.seed + 1
	if srsSeed == 0 {
		srsSeed = 1
	}
	// The benchmark's own copy of the daemon's SRS, for offline checks.
	srs := zkphire.SetupDeterministic(srsVars, srsSeed)

	var rec *Recorder
	if cfg.trace {
		rec = newRecorder()
	}
	workers := runtime.NumCPU()
	journalPath := filepath.Join(cfg.workdir, "jobs.journal")
	common := []string{"-srs-vars", strconv.Itoa(srsVars), "-seed", strconv.FormatInt(srsSeed, 10), "-timeout", "60s"}

	// Set-up: process start until /healthz is ok (and, for the cluster,
	// both workers live). Repeated; the last start serves the run.
	var procs *fleet
	defer func() { procs.stop() }()
	var setups []float64
	for rep := 0; rep < sz.serveSetupReps; rep++ {
		procs.stop()
		if err := os.RemoveAll(journalPath); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		procs, err = startFleet(cfg, cluster, common, journalPath, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	cl := newClient(procs.front, workers, rec)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+90*time.Second)
	defer cancel()
	st := &serveState{specs: specs, ref: map[int][]byte{}}

	// Register the pool least popular first, so the popular circuits are
	// the ones left in the session cache.
	st.ids = make([]string, len(specs))
	st.vks = make([]string, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		resp, err := cl.register(ctx, &specs[i], 0, 0)
		if err != nil {
			return nil, fmt.Errorf("register circuit %d: %w", i, err)
		}
		st.ids[i], st.vks[i] = resp.CircuitID, resp.VerifyingKey
	}
	// One untimed proof per circuit, least popular first, warms the
	// session caches (and, on a cluster, replicates circuits to workers)
	// so a run does not start in a transient, and seeds the settled keys
	// that replays repeat.
	warm := make([]float64, len(specs))
	for slot := len(specs) - 1; slot >= 0; slot-- {
		r := cl.prove(ctx, st, request{kind: opProve, circuit: slot}, fmt.Sprintf("warm-%d", slot), time.Now(), 0)
		if r.err != nil {
			return nil, fmt.Errorf("warm-up prove of circuit %d: %w", slot, r.err)
		}
		warm[slot] = r.latency
	}

	before, err := procs.scrape()
	if err != nil {
		return nil, err
	}
	results := loadgen(ctx, cl, st, reqs, cfg.seed)
	after, err := procs.scrape()
	if err != nil {
		return nil, err
	}
	var overhead float64
	if cfg.trace {
		// One request at a time to the most popular circuit, through the
		// traced client and through an untraced one.
		plain := newClient(procs.front, workers, nil)
		probe := func(c *client, key string) func() (time.Duration, error) {
			n := 0
			return func() (time.Duration, error) {
				n++
				r := c.prove(ctx, st, request{kind: opProve}, fmt.Sprintf("s%d-%s%d", cfg.seed, key, n), time.Now(), 0)
				return time.Duration(r.latency * float64(time.Second)), r.err
			}
		}
		if overhead, err = tracedVsPlain(20, probe(cl, "traced"), probe(plain, "plain")); err != nil {
			return nil, fmt.Errorf("overhead probe: %w", err)
		}
	}
	rss, err := procs.proverRSS()
	if err != nil {
		return nil, err
	}
	jinfo, err := os.Stat(journalPath)
	if err != nil {
		return nil, err
	}
	procs.stop()

	out := &outcome{metrics: map[string]float64{}}
	// Offline check: each circuit's first proof verifies against the key
	// returned at registration. Later proofs were byte-compared with it.
	var verifyTimes []float64
	for slot, data := range st.ref {
		start := time.Now()
		if err := verifyOffline(srs, st.vks[slot], data); err != nil {
			fmt.Fprintf(os.Stderr, "circuit %d: first proof fails offline verification: %v\n", slot, err)
			out.checksFailed++
		}
		verifyTimes = append(verifyTimes, time.Since(start).Seconds())
	}
	out.checksFailed += int(st.mismatches.Load())

	var (
		lat, sendLat, late, queueWait, serverProve []float64
		byKind                                     = map[bool][]float64{}
		replayLat, verifyLat                       []float64
		reregs, fresh                              int
		lastDone                                   float64
		byCircuit                                  = map[int][]float64{}
	)
	okSLO := 0
	for i, r := range results {
		rq := reqs[i]
		out.attempted++
		late = append(late, r.late)
		if r.err != nil {
			if out.failed < 3 {
				fmt.Fprintf(os.Stderr, "request %d (%v): %v\n", i, rq.kind, r.err)
			}
			out.failed++
			continue
		}
		if r.latency <= sz.sloServe.Seconds() {
			okSLO++
		}
		switch rq.kind {
		case opReplay:
			replayLat = append(replayLat, r.sendLatency)
			continue
		case opVerify:
			verifyLat = append(verifyLat, r.sendLatency)
			continue
		}
		fresh++
		lastDone = max(lastDone, rq.at+r.latency)
		lat = append(lat, r.latency)
		sendLat = append(sendLat, r.sendLatency)
		byKind[shapes[rq.circuit].jellyfish] = append(byKind[shapes[rq.circuit].jellyfish], r.latency)
		if r.reregistered {
			reregs++
		}
		if r.serverSeconds > 0 {
			serverProve = append(serverProve, r.serverSeconds)
			queueWait = append(queueWait, r.latency-r.serverSeconds)
		}
		byCircuit[rq.circuit] = append(byCircuit[rq.circuit], r.sendLatency)
	}
	if p := percentile(late, 0.99); p > sz.maxLate.Seconds() {
		return nil, fmt.Errorf("invalid run: load generator ran %.3fs late at p99 (limit %v)", p, sz.maxLate)
	}

	m := out.metrics
	if !cfg.trace {
		m["setup_s"] = median(setups)
		m["latency_p50_s"] = median(lat)
		m["latency_p90_s"] = percentile(lat, 0.9)
		m["geomean_latency_s"] = geomean([]float64{median(byKind[false]), median(byKind[true])})
		// Proofs completed over the interval from the first scheduled
		// send to the last completion.
		if span := lastDone - reqs[0].at; span > 0 {
			m["throughput_per_s"] = float64(fresh) / span
		}
		m["slo_ok_frac"] = float64(okSLO) / float64(out.attempted)
		m["peak_rss_mib"] = rss
		m["proof_bytes"] = float64(len(st.ref[0]))
		return out, nil
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	m["zkphire.verify_s"] = median(verifyTimes)
	m["service.queue_wait_p50_s"] = median(queueWait)
	m["service.queue_wait_p90_s"] = percentile(queueWait, 0.9)
	m["service.server_prove_p50_s"] = median(serverProve)
	m["service.register_s"] = median(durations(rec.Spans(), "http.register"))
	m["service.verify_s"] = median(verifyLat)
	m["service.preprocesses"] = delta("zkphired_preprocess_total")
	if fresh > 0 {
		// A fresh prove hits the session cache unless it pays for
		// preprocessing: a re-registration, or a worker-side replication.
		m["service.cache_hit_frac"] = max(0, 1-m["service.preprocesses"]/float64(fresh))
		m["service.reregister_frac"] = float64(reregs) / float64(fresh)
	}
	m["service.rejected"] = delta("zkphired_proofs_rejected_total")
	m["journal.replay_s"] = median(replayLat)
	m["journal.bytes"] = float64(jinfo.Size())
	if cluster {
		// The coordinator does not return the worker's proving time; the
		// workers' latency summaries give its mean.
		if n := delta("zkphired_proof_latency_seconds_count"); n > 0 {
			workerMean := delta("zkphired_proof_latency_seconds_sum") / n
			m["service.server_prove_p50_s"] = workerMean
			m["service.queue_wait_p50_s"] = median(lat) - workerMean
			m["service.queue_wait_p90_s"] = percentile(lat, 0.9) - workerMean
			m["cluster.dispatch_overhead_p50_s"] = median(sendLat) - workerMean
		}
		if d := delta("zkphired_jobs_dispatched_total"); d > 0 {
			m["cluster.dispatches_per_job"] = delta("zkphired_jobs_completed_total") / d
		}
		m["cluster.redispatches"] = delta("zkphired_jobs_redispatched_total")
		m["cluster.fenced"] = delta("zkphired_results_fenced_total")
		// A circuit's warm-up prove is its first on the cluster, so it
		// pays for replicating the circuit to a worker; later proves,
		// timed from their actual send, mostly do not.
		var extra []float64
		for c, later := range byCircuit {
			extra = append(extra, warm[c]-median(later))
		}
		m["cluster.replication_s"] = median(extra)
	}
	m["loadgen.late_p99_s"] = percentile(late, 0.99)
	m["loadgen.sent"] = float64(len(reqs))
	m["loadgen.conns"] = float64(cl.conns.Load())
	m["trace.overhead_frac"] = overhead
	fieldLayers(m)
	return out, rec.WriteFile(cfg.tracePath())
}

func verifyOffline(srs *zkphire.SRS, vkB64 string, data []byte) error {
	raw, err := base64.StdEncoding.DecodeString(vkB64)
	if err != nil {
		return err
	}
	vk, err := zkphire.UnmarshalVerifyingKey(raw)
	if err != nil {
		return err
	}
	var p zkphire.Proof
	if err := p.UnmarshalBinary(data); err != nil {
		return err
	}
	return zkphire.Verify(srs, vk, &p)
}

// serveState is what the load has produced so far: reference proof bytes
// per circuit and the settled idempotency keys replays may repeat.
type serveState struct {
	specs []service.CircuitSpec
	ids   []string
	vks   []string

	mu      sync.Mutex
	ref     map[int][]byte // circuit slot → first proof
	settled []settledKey

	mismatches atomic.Int64
}

type settledKey struct {
	key  string
	slot int
	data []byte
}

// accept records a fresh proof: the first of its circuit becomes the
// reference; later ones must match it byte for byte.
func (st *serveState) accept(slot int, key string, data []byte) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ok := true
	if ref, seen := st.ref[slot]; !seen {
		st.ref[slot] = data
	} else if !bytes.Equal(ref, data) {
		st.mismatches.Add(1)
		ok = false
	}
	st.settled = append(st.settled, settledKey{key, slot, data})
	return ok
}

// opResult is one operation's outcome. Times are seconds.
type opResult struct {
	err           error
	late          float64 // how late the generator sent it
	latency       float64 // from the scheduled send time
	sendLatency   float64 // from the moment a connection was granted
	serverSeconds float64 // the daemon's own duration_ms, when given
	reregistered  bool
}

// loadgen sends each request at its scheduled time and waits for all.
func loadgen(ctx context.Context, cl *client, st *serveState, reqs []request, seed int64) []opResult {
	results := make([]opResult, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, rq := range reqs {
		due := start.Add(time.Duration(rq.at * float64(time.Second)))
		time.Sleep(time.Until(due))
		late := time.Since(due).Seconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r opResult
			switch rq.kind {
			case opProve:
				r = cl.prove(ctx, st, rq, fmt.Sprintf("s%d-r%d", seed, i), due, int64(i+1))
			case opReplay:
				r = cl.replay(ctx, st, rq, due, int64(i+1))
			case opVerify:
				r = cl.verify(ctx, st, rq, due, int64(i+1))
			}
			r.late = late
			results[i] = r
		}()
	}
	wg.Wait()
	return results
}

// client speaks the daemon's HTTP API over at most maxConns connections.
type client struct {
	base  string
	http  *http.Client
	rec   *Recorder
	conns atomic.Int64
}

func newClient(base string, maxConns int, rec *Recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 90 * time.Second}, rec: rec}
}

// post sends one JSON request and decodes a 200 reply into out. It
// returns the HTTP status (0 on a transport error). When sent is non-nil
// and still zero, it receives the time a connection was granted, which
// excludes the wait for one of the client's few connections.
func (c *client) post(ctx context.Context, path string, in, out any, sent *time.Time) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if sent != nil && sent.IsZero() {
			*sent = time.Now()
		}
		if !info.Reused {
			c.conns.Add(1)
		}
	}}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func (c *client) register(ctx context.Context, spec *service.CircuitSpec, parent int, req int64) (*service.RegisterResponse, error) {
	var resp service.RegisterResponse
	var err error
	c.rec.Time("http.register", parent, req, func(int) { _, err = c.post(ctx, "/circuits", spec, &resp, nil) })
	return &resp, err
}

// finish stamps an operation's latencies: from its scheduled send time,
// and from the moment it got a connection.
func (r *opResult) finish(due, sent time.Time) {
	r.latency = time.Since(due).Seconds()
	if !sent.IsZero() {
		r.sendLatency = time.Since(sent).Seconds()
	}
}

// prove runs one fresh /prove by the documented client protocol: on 404
// (circuit evicted) POST /circuits again, then retry the /prove.
func (c *client) prove(ctx context.Context, st *serveState, rq request, key string, due time.Time, req int64) (r opResult) {
	var sent time.Time
	var resp service.ProveResponse
	c.rec.Time("http.prove", 0, req, func(id int) {
		body := service.ProveRequest{CircuitID: st.ids[rq.circuit], IdempotencyKey: key, TimeoutMS: 60000}
		status, err := c.post(ctx, "/prove", body, &resp, &sent)
		// A concurrent registration can evict the circuit again between
		// the two calls, so the protocol gets a few rounds.
		for try := 0; status == http.StatusNotFound && try < 3; try++ {
			r.reregistered = true
			if _, err = c.register(ctx, &st.specs[rq.circuit], id, req); err != nil {
				break
			}
			status, err = c.post(ctx, "/prove", body, &resp, &sent)
		}
		r.err = err
	})
	r.finish(due, sent)
	if r.err != nil {
		return r
	}
	r.serverSeconds = resp.DurationMS / 1e3
	data, err := base64.StdEncoding.DecodeString(resp.Proof)
	if err != nil {
		r.err = err
		return r
	}
	if !st.accept(rq.circuit, key, data) {
		r.err = fmt.Errorf("circuit %d: proof bytes differ from its first proof", rq.circuit)
	}
	return r
}

// replay repeats a settled idempotency key; the reply must carry the
// bytes the key first returned.
func (c *client) replay(ctx context.Context, st *serveState, rq request, due time.Time, req int64) (r opResult) {
	st.mu.Lock()
	k := st.settled[rq.pick%uint64(len(st.settled))]
	st.mu.Unlock()
	var sent time.Time
	var resp service.ProveResponse
	c.rec.Time("http.replay", 0, req, func(int) {
		_, r.err = c.post(ctx, "/prove", service.ProveRequest{CircuitID: st.ids[k.slot], IdempotencyKey: k.key}, &resp, &sent)
	})
	r.finish(due, sent)
	if r.err != nil {
		return r
	}
	data, err := base64.StdEncoding.DecodeString(resp.Proof)
	if err != nil || !resp.Replayed || !bytes.Equal(data, k.data) {
		st.mismatches.Add(1)
		r.err = fmt.Errorf("replay of %s: replayed=%v, bytes equal=%v", k.key, resp.Replayed, bytes.Equal(data, k.data))
	}
	return r
}

// verify posts the circuit's reference proof (or circuit 0's, if it has
// none yet) with the verifying key inline; the verdict must be valid.
func (c *client) verify(ctx context.Context, st *serveState, rq request, due time.Time, req int64) (r opResult) {
	st.mu.Lock()
	slot := rq.circuit
	data, ok := st.ref[slot]
	if !ok {
		slot, data = 0, st.ref[0]
	}
	st.mu.Unlock()
	var sent time.Time
	var resp service.VerifyResponse
	c.rec.Time("http.verify", 0, req, func(int) {
		body := service.VerifyRequest{VerifyingKey: st.vks[slot], Proof: base64.StdEncoding.EncodeToString(data)}
		_, r.err = c.post(ctx, "/verify", body, &resp, &sent)
	})
	r.finish(due, sent)
	if r.err == nil && !resp.Valid {
		st.mismatches.Add(1)
		r.err = fmt.Errorf("circuit %d: daemon rejects a valid proof: %s", slot, resp.Reason)
	}
	return r
}

// fleet is the set of zkphired processes one serve run starts.
type fleet struct {
	front   string // base URL clients talk to
	procs   []*proc
	provers []*proc // the processes that prove
}

// proc is one child process; done closes once it has exited.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// startFleet starts the daemon(s) and returns once they serve: /healthz
// ok and, for a cluster, both workers live at the coordinator.
func startFleet(cfg config, cluster bool, common []string, journalPath string, workers int) (*fleet, error) {
	f := &fleet{}
	start := func(name string, args ...string) (*proc, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(cfg.zkphired, append(append([]string{"-addr", addr}, common...), args...)...)
		logf, err := os.Create(filepath.Join(cfg.workdir, name+".log"))
		if err != nil {
			return nil, err
		}
		defer logf.Close() // the child holds its own descriptor
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &proc{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status after SIGTERM is not interesting
			close(p.done)
		}()
		f.procs = append(f.procs, p)
		return p, nil
	}
	cache := strconv.Itoa(cfg.sz.cache)
	if !cluster {
		p, err := start("single", "-role", "single", "-workers", strconv.Itoa(workers), "-cache", cache, "-journal", journalPath)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.front, f.provers = p.url, []*proc{p}
	} else {
		coord, err := start("coordinator", "-role", "coordinator", "-journal", journalPath)
		if err == nil {
			// Workers start once the coordinator serves, so their first
			// join succeeds and set-up does not time a retry backoff.
			err = f.waitReady(false, 60*time.Second)
		}
		if err != nil {
			f.stop()
			return nil, err
		}
		f.front = coord.url
		for i := 0; i < 2; i++ {
			p, err := start(fmt.Sprintf("worker%d", i), "-role", "worker", "-coordinator", coord.url, "-workers", "1", "-cache", cache)
			if err != nil {
				f.stop()
				return nil, err
			}
			f.provers = append(f.provers, p)
		}
	}
	if err := f.waitReady(cluster, 60*time.Second); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) waitReady(cluster bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		ready := true
		for _, p := range f.procs {
			if p.exited() {
				return fmt.Errorf("zkphired exited early: %v", p.cmd.ProcessState)
			}
			resp, err := hc.Get(p.url + "/healthz")
			if err != nil {
				ready = false
				break
			}
			var h struct{ Status string }
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil || h.Status != "ok" {
				ready = false
				break
			}
		}
		if ready && cluster {
			m, err := scrapeOne(hc, f.front)
			ready = err == nil && m["zkphired_workers_live"] == 2
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("zkphired not ready after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends every process (SIGTERM, then SIGKILL after a grace period)
// and waits for each to exit. Safe on a nil fleet and when called twice.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, p := range f.procs {
		if !p.exited() {
			_ = p.cmd.Process.Signal(syscall.SIGTERM) // racing its exit is fine
		}
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// proverRSS sums the peak resident memory of the proving processes.
func (f *fleet) proverRSS() (float64, error) {
	var total float64
	for _, p := range f.provers {
		v, err := peakRSSMiB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// scrape reads /metrics across the fleet: unlabelled samples, summed
// per name over processes.
func (f *fleet) scrape() (map[string]float64, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	out := map[string]float64{}
	for _, p := range f.procs {
		m, err := scrapeOne(hc, p.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

func scrapeOne(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
