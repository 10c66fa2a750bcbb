package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

// serveWindow is the served campaigns' instruction window before each
// request's unique offset.
const serveWindow = 50000

// serveRequests is the cold requests per serve round at full scale; the
// mini serve sends serveRequestsMini. A full pass's rounds leave at
// least ten samples beyond each phase's p90.
const (
	serveRequests     = 8
	serveRequestsMini = 2
)

// servePasses is how many times a round resubmits its specs in the warm
// and in the store phase.
const servePasses = 2

// httpServer is one loopback HTTP listener serving a handler.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and its connections and waits for Serve to
// return.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// node is one specserved instance on a loopback port.
type node struct {
	srv  *server.Server
	http *httpServer
}

func startNode(cfg server.Config) (*node, error) {
	s := server.New(cfg)
	h, err := listen(s.Handler())
	if err != nil {
		s.Drain()
		return nil, err
	}
	return &node{srv: s, http: h}, nil
}

func (n *node) stop() {
	n.http.close()
	n.srv.Drain()
}

// servedFleet is a coordinator with a persistent store scattering to two
// single-pair-at-a-time workers.
type servedFleet struct {
	workers []*node
	coord   *node
	dir     string
}

func startFleet(dir string) (*servedFleet, error) {
	f := &servedFleet{dir: dir}
	for i := 0; i < 2; i++ {
		w, err := startNode(server.Config{Workers: 1, QueueDepth: 64,
			Characterize: core.Options{Parallelism: 1}})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	if err := f.startCoordinator(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// startCoordinator starts a coordinator with a fresh memory cache on the
// fleet's store directory.
func (f *servedFleet) startCoordinator() error {
	st, err := store.Open(f.dir)
	if err != nil {
		return err
	}
	urls := make([]string, len(f.workers))
	for i, w := range f.workers {
		urls[i] = w.http.url
	}
	f.coord, err = startNode(server.Config{Workers: 2, QueueDepth: 16, Fleet: fleet.Workers(urls),
		Characterize: core.Options{Cache: sched.NewCache(), Store: st}})
	if err != nil {
		return err
	}
	ok, err := client.New(f.coord.http.url).Health(context.Background())
	if err == nil && !ok {
		err = errors.New("coordinator reports unhealthy")
	}
	return err
}

func (f *servedFleet) restartCoordinator() error {
	f.coord.stop()
	f.coord = nil
	return f.startCoordinator()
}

func (f *servedFleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
}

// measureSetup samples the benchmark's set-up time reps times: building
// the workload profiles, opening a store and starting the fleet until
// the coordinator answers its health check.
func measureSetup(r *run, reps int) error {
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(r.dir, "setup-*")
		if err != nil {
			return err
		}
		start := time.Now()
		n := 0
		for _, apps := range [][]*profile.Profile{profile.CPU2017(), profile.CPU2006()} {
			for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
				n += len(profile.ExpandSuite(apps, size))
			}
		}
		f, err := startFleet(dir)
		r.duration("setup_s", "s", time.Since(start).Seconds())
		r.op(err, "setup")
		r.check(n > 0, "setup: profiles expand to %d pairs", n)
		if f != nil {
			f.stop()
		}
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

// serveSpecs are one round's served campaigns: every request carries
// all 22 rate-int test pairs in its own seed order, and its own
// instruction window, so every cold request in the run simulates and
// every request does the same work.
func serveSpecs(r *run, sc scale, round int) []server.CampaignSpec {
	pairs := profile.FilterSuite(profile.ExpandSuite(profile.CPU2017(), profile.Test), profile.RateInt)
	names := make([]string, len(pairs))
	for i := range pairs {
		names[i] = pairs[i].Name()
	}
	n := serveRequests
	if sc == mini {
		n = serveRequestsMini
	}
	off := serveWindow + r.windowOffset() + uint64(round*serveRequests)
	specs := make([]server.CampaignSpec, n)
	for i := range specs {
		pick := append([]string(nil), names...)
		r.shuffle(fmt.Sprintf("serve/pairs/%d/%d", round, i), len(pick), func(a, b int) { pick[a], pick[b] = pick[b], pick[a] })
		specs[i] = server.CampaignSpec{Suite: "cpu2017", Mini: "rate-int", Size: "test",
			Instructions: off + uint64(i), Pairs: pick}
	}
	return specs
}

// served is one request's outcome.
type served struct {
	latency time.Duration
	status  server.CampaignStatus
	results []byte // the results as JSON
}

// servePhase sends every spec once from one client in a closed loop, in
// the seed's order for the phase and round, and returns the CPU time the
// process spent on it: client, coordinator and workers.
func servePhase(r *run, url, name string, round int, specs []server.CampaignSpec) ([]served, time.Duration) {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	r.shuffle(fmt.Sprintf("serve/%s/%d", name, round), len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// Collect the earlier phases' garbage first, so a short phase does
	// not pay for it.
	runtime.GC()
	out := make([]served, len(specs))
	cl := client.New(url)
	r.probe()
	start := cpuTime()
	for _, i := range order {
		t0 := time.Now()
		st, err := cl.SubmitWait(context.Background(), specs[i])
		out[i].latency = time.Since(t0)
		out[i].status = st
		if err == nil && st.Status != server.StatusDone {
			err = fmt.Errorf("campaign %s ended %s: %s", st.ID, st.Status, st.Error)
		}
		if err == nil {
			out[i].results, err = json.Marshal(st.Results)
		}
		r.op(err, "serve %s round %d request %d", name, round, i)
	}
	return out, cpuTime() - start
}

// serveResult is one serve round: its specs, cold responses and fleet
// chunk accounting.
type serveResult struct {
	specs           []server.CampaignSpec
	cold            []served
	chunks, retries float64
	chunkMS         []float64
}

// serveRound boots a fleet on a fresh store and drives the cold phase,
// the warm phase and the store phase (each store pass after a
// coordinator restart), pooling latencies per phase. Every warm and
// store response is checked against the cold one, and cold responses
// against core.Characterize of the same spec. With traced set it also
// reads each cold campaign's fleet chunk spans from its manifest.
func serveRound(r *run, sc scale, round int, traced bool) (*serveResult, error) {
	dir, err := os.MkdirTemp(r.dir, "store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(dir)
	r.op(err, "start fleet")
	if err != nil {
		return nil, err
	}
	defer f.stop()

	res := &serveResult{specs: serveSpecs(r, sc, round)}
	before := fleetChunks()
	cold, cpu := servePhase(r, f.coord.http.url, "cold", round, res.specs)
	after := fleetChunks()
	res.cold = cold
	res.chunks = after["ok"] - before["ok"]
	res.retries = after["retry"] - before["retry"]
	pairs := 0
	for _, s := range cold {
		pairs += s.status.Progress.Remote
		r.check(s.status.Progress.Remote == s.status.Pairs && s.status.Pairs > 0,
			"serve cold %s: %d of %d pairs simulated remotely", s.status.ID, s.status.Progress.Remote, s.status.Pairs)
	}
	r.rate("cold_pairs_per_ref_s", "pairs/ref-s", float64(pairs)/cpu.Seconds())
	r.pool("cold", cold)
	if traced {
		cl := client.New(f.coord.http.url)
		for _, s := range cold {
			ms, err := chunkSpans(cl, s.status.ID)
			r.op(err, "manifest %s", s.status.ID)
			res.chunkMS = append(res.chunkMS, ms...)
		}
	}

	for pass := 0; pass < servePasses; pass++ {
		warm, _ := servePhase(r, f.coord.http.url, "warm", round, res.specs)
		for i, s := range warm {
			p := s.status.Progress
			r.check(p.CacheHits == s.status.Pairs && p.StoreHits == 0 && p.Remote == 0,
				"serve warm %s: %d memory hits, %d store hits, %d remote of %d", s.status.ID, p.CacheHits-p.StoreHits, p.StoreHits, p.Remote, s.status.Pairs)
			r.check(bytes.Equal(s.results, cold[i].results), "serve warm request %d: results differ from the cold response", i)
		}
		r.pool("warm", warm)
	}
	for pass := 0; pass < servePasses; pass++ {
		err := f.restartCoordinator()
		r.op(err, "restart coordinator")
		if err != nil {
			return nil, err
		}
		disk, _ := servePhase(r, f.coord.http.url, "store", round, res.specs)
		for i, s := range disk {
			p := s.status.Progress
			r.check(p.StoreHits == s.status.Pairs && p.Remote == 0,
				"serve store %s: %d store hits, %d simulated of %d", s.status.ID, p.StoreHits, p.Remote, s.status.Pairs)
			r.check(bytes.Equal(s.results, cold[i].results), "serve store request %d: results differ from the cold response", i)
		}
		r.pool("store", disk)
	}
	verifyServed(r, round, res)
	return res, nil
}

// verifyServed recomputes one served spec in four (chosen by the seed)
// in process with core.Characterize and checks the cold response is
// byte-identical; recomputing them all would cost as much as the cold
// phase. Warm and store responses are compared with the cold ones, so
// each recomputed spec covers all of its responses.
func verifyServed(r *run, round int, res *serveResult) {
	const every = 4
	pick := int(hash64(fmt.Sprintf("verify/%d/%d", r.seed, round)) % every)
	all := profile.FilterSuite(profile.ExpandSuite(profile.CPU2017(), profile.Test), profile.RateInt)
	byName := map[string]profile.Pair{}
	for _, p := range all {
		byName[p.Name()] = p
	}
	for i, spec := range res.specs {
		if i%every != pick {
			continue
		}
		pairs := make([]profile.Pair, len(spec.Pairs))
		for j, n := range spec.Pairs {
			pairs[j] = byName[n]
		}
		chars, err := core.Characterize(pairs, core.Options{Instructions: spec.Instructions, Parallelism: measureParallelism})
		r.op(err, "local characterize of serve spec %d", i)
		want, _ := json.Marshal(chars)
		r.check(err == nil && bytes.Equal(want, res.cold[i].results), "serve request %d: results differ from core.Characterize", i)
	}
}

// fleetChunks sums speckit_fleet_chunks_total by outcome from the
// process's Prometheus exposition, as GET /metrics serves it.
func fleetChunks() map[string]float64 {
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "speckit_fleet_chunks_total{") {
			continue
		}
		i := strings.Index(line, `outcome="`)
		sp := strings.LastIndexByte(line, ' ')
		if i < 0 || sp < 0 {
			continue
		}
		outcome := line[i+len(`outcome="`):]
		outcome = outcome[:strings.IndexByte(outcome, '"')]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[outcome] += v
		}
	}
	return out
}

// chunkSpans returns the durations of a campaign's fleet chunk spans
// from its run manifest.
func chunkSpans(cl *client.Client, id string) ([]float64, error) {
	m, _, err := cl.Manifest(context.Background(), id)
	if err != nil {
		return nil, err
	}
	_, spans, err := obs.ReadManifest(bytes.NewReader(m))
	if err != nil {
		return nil, err
	}
	var ms []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, id+"/chunk") {
			ms = append(ms, float64(s.DurUS)/1e3)
		}
	}
	return ms, nil
}

// servingLayers times the serving path's layers in process: the memory
// cache tier, the store codec and store I/O, the HTTP handler and the
// client's decode, on results the served phases produced.
func servingLayers(r *run, res *serveResult) error {
	var chars []core.Characteristics
	if err := json.Unmarshal(res.cold[0].results, &chars); err != nil {
		return err
	}
	codec := core.CharacteristicsCodec{}
	keys := make([]string, len(chars))
	blobs := make([][]byte, len(chars))
	cache := sched.NewCache()
	var enc, dec []float64
	for i := range chars {
		sum := sha256.Sum256([]byte(pairID(&chars[i])))
		keys[i] = hex.EncodeToString(sum[:]) // shaped like the result cache's content keys
		start := time.Now()
		b, err := codec.Encode(chars[i])
		enc = append(enc, us(time.Since(start)))
		r.op(err, "codec encode")
		start = time.Now()
		_, err = codec.Decode(b)
		dec = append(dec, us(time.Since(start)))
		r.op(err, "codec decode")
		blobs[i] = b
		cache.Put(keys[i], chars[i])
	}
	r.set("core.codec_encode_us", "us", medianOf(enc))
	r.set("core.codec_decode_us", "us", medianOf(dec))

	const getReps = 2000
	start := time.Now()
	hits := 0
	for j := 0; j < getReps; j++ {
		if _, tier := cache.GetTier(keys[j%len(keys)]); tier == sched.TierMemory {
			hits++
		}
	}
	r.set("sched.cache_get_ns", "ns", float64(time.Since(start).Nanoseconds())/getReps)
	r.check(hits == getReps, "sched cache: %d of %d memory hits", hits, getReps)

	dir, err := os.MkdirTemp(r.dir, "layers-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var put, get []float64
	for i := range keys {
		start := time.Now()
		st.Store(keys[i], blobs[i])
		put = append(put, us(time.Since(start)))
	}
	for i := range keys {
		start := time.Now()
		b, ok := st.Load(keys[i])
		get = append(get, us(time.Since(start)))
		r.check(ok && bytes.Equal(b, blobs[i]), "store: record %d does not round-trip", i)
	}
	r.set("store.store_us", "us", medianOf(put))
	r.set("store.load_us", "us", medianOf(get))
	r.set("store.bytes_per_record", "B", float64(dirBytes(dir))/float64(len(keys)))

	// The handler and client decode on a warm campaign: a coordinator
	// whose memory tier already holds the spec's results.
	sdir, err := os.MkdirTemp(r.dir, "handler-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	f, err := startFleet(sdir)
	if err != nil {
		return err
	}
	defer f.stop()
	spec, _ := json.Marshal(res.specs[0])
	var handler, decode, size []float64
	for i := 0; i < 12; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/campaigns?wait=1", bytes.NewReader(spec))
		start := time.Now()
		f.coord.srv.Handler().ServeHTTP(rec, req)
		d := time.Since(start)
		body := rec.Body.Bytes()
		var st server.CampaignStatus
		start = time.Now()
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&st)
		decode = append(decode, us(time.Since(start)))
		r.op(err, "decode handler response")
		if i == 0 {
			continue // the first request simulates; the rest are served warm
		}
		r.check(st.Progress.CacheHits == st.Pairs, "handler: warm campaign served %d of %d from memory", st.Progress.CacheHits, st.Pairs)
		handler = append(handler, us(d))
		size = append(size, float64(len(body)))
	}
	r.set("server.handler_us", "us", medianOf(handler))
	r.set("server.response_bytes", "B", medianOf(size))
	r.set("client.decode_us", "us", medianOf(decode[1:]))

	var wait []float64
	for _, s := range res.cold {
		if s.status.Started != nil {
			wait = append(wait, s.status.Started.Sub(s.status.Created).Seconds()*1e3)
		}
	}
	r.set("server.queue_wait_ms", "ms", medianOf(wait))
	r.set("fleet.chunks", "count", res.chunks)
	r.set("fleet.chunk_retries", "count", res.retries)
	r.set("fleet.chunk_ms_p50", "ms", medianOf(res.chunkMS))
	return nil
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// quantile is the nearest-rank q-quantile.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
