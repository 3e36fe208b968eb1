// Command thirstyflopsd serves ThirstyFLOPS water-footprint assessments
// over HTTP, directly on a shared cached Engine: repeated requests
// for the same configuration are answered from the memo without
// re-simulating the year.
//
// Responses are compact JSON by default (?pretty=1 indents) and
// negotiate faster encodings via the Accept header: assessment results
// serve as the internal/wire binary frame
// (application/x-thirstyflops-wire) and job results stream as NDJSON
// (application/x-ndjson) — see codec.go, the encoding layer every
// handler writes through.
//
// Endpoints:
//
//	POST   /assess            AssessRequest  -> AssessResult
//	GET    /assess                           -> AssessResult (system/source/seed/year query params)
//	POST   /sweep             SweepRequest   -> SweepResult
//	GET    /water500                         -> Water500Result (seed/year query params)
//	POST   /ingest            Sample | [Sample] | NDJSON -> ingest summary (live telemetry)
//	GET    /watch                            -> SSE stream of live re-assessments (system/source query params)
//	POST   /jobs              BatchRequest   -> job snapshot (async sweep submission)
//	GET    /jobs/{id}                        -> job status + progress
//	GET    /jobs/{id}/result                 -> paginated results (offset/limit query params)
//	DELETE /jobs/{id}                        -> request cancellation
//	GET    /healthz                          -> liveness plus cache statistics
//	GET    /livez                            -> live-stream coverage and ingestion lag
//
// Live path: POST observed power samples to /ingest (or, at line rate,
// fire statsd-style UDP packets like `fleet.Frontier.power:21500000|g`
// at -udp-addr), then GET /assess?system=Frontier&source=live to assess
// against the observed window spliced over the simulated year. With
// -live-systems, one telemetry stream is registered per fleet system and
// samples route by system name; -ingest-token and -udp-allow gate the
// two ingest surfaces.
//
// Job path: POST a sweep too large for one HTTP round trip to /jobs; it
// executes in the background through the Engine's substrate-aware
// planner, and the returned id is polled for status and paged results.
// See docs/HTTP_API.md for the full reference.
//
// Usage:
//
//	thirstyflopsd -addr :8080 -workers 8 -cache 256 -live-window 336 -jobs 64
package main

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"thirstyflops"
	"thirstyflops/internal/breaker"
	"thirstyflops/internal/gang"
	"thirstyflops/internal/jobqueue"
	"thirstyflops/internal/statsd"
	"thirstyflops/internal/store"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/watch"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "assessment fan-out width (0 = GOMAXPROCS)")
		cache       = flag.Int("cache", 256, "max memoized assessments (0 disables)")
		liveWindow  = flag.Int("live-window", 336, "hours of live telemetry retained for source=live (0 disables /ingest)")
		liveSystems = flag.String("live-systems", "", "comma-separated fleet systems, one pinned live stream each (empty: one stream accepting any system)")
		liveYear    = flag.Int("live-year", 0, "assessment year the live streams are pinned to (0 accepts any)")
		ingestToken = flag.String("ingest-token", "", "when set, POST /ingest requires 'Authorization: Bearer <token>'")
		udpAddr     = flag.String("udp-addr", "", "statsd-style UDP telemetry listen address (empty disables)")
		flushEvery  = flag.Duration("flush-interval", statsd.DefaultFlushInterval, "UDP aggregation window: one sample per system per interval")
		udpMaxQueue = flag.Int("udp-max-queue", statsd.DefaultMaxQueue, "unprocessed UDP datagrams buffered before backpressure drops")
		udpAllow    = flag.String("udp-allow", "", "comma-separated source CIDRs allowed to feed -udp-addr (empty allows all)")
		gangWindow  = flag.Duration("gang-window", defaultGangWindow, "merge window for fleet-wide gang scheduling: concurrent batches arriving within it share one substrate-affine schedule (0 runs each batch as its own round)")
		jobRetain   = flag.Int("jobs", defaultJobRetain, "async jobs retained for polling, LRU-evicted (0 disables /jobs)")
		jobConc     = flag.Int("job-concurrency", defaultJobConcurrency, "async jobs executing at once; further jobs queue")
		jobUnits    = flag.Int("job-max-units", defaultJobMaxUnits, "max assessments one job may expand to")
		stateDir    = flag.String("state-dir", "", "persistence directory (empty disables): memoized assessments and completed job results survive restarts")
		maxInflight = flag.Int("max-inflight", 256, "concurrent requests served before new ones queue for admission (0 = unlimited)")
		admitQueue  = flag.Int("admission-queue", 64, "requests allowed to wait for a slot past -max-inflight before 429")
		queueWait   = flag.Duration("queue-wait", time.Second, "longest a queued request waits for a slot before 429 + Retry-After")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline propagated through the handler context (0 = none)")
		watchSubs   = flag.Int("watch-max-subscribers", defaultWatchSubscribers, "concurrent GET /watch SSE subscribers before 429 (negative = unlimited)")
		watchBeat   = flag.Duration("watch-heartbeat", defaultWatchHeartbeat, "heartbeat interval on GET /watch streams")
	)
	flag.Parse()

	opts := []thirstyflops.Option{
		thirstyflops.WithWorkers(*workers),
		thirstyflops.WithCache(*cache),
		thirstyflops.WithGangWindow(*gangWindow),
	}
	if *liveWindow > 0 {
		reg, err := buildStreams(*liveSystems, *liveYear, *liveWindow)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, thirstyflops.WithLiveStreams(reg))
	}
	if *stateDir != "" {
		opts = append(opts, thirstyflops.WithPersistence(*stateDir))
	}
	eng := thirstyflops.NewEngine(opts...)
	if err := eng.PersistenceError(); err != nil {
		// Degraded, not dead: the engine serves memory-only and /healthz
		// reports degraded=true until an operator intervenes.
		log.Printf("thirstyflopsd: persistence unavailable, serving memory-only: %v", err)
	}
	s, err := newServer(eng, jobsConfig{
		Retain:           *jobRetain,
		Concurrency:      *jobConc,
		MaxUnits:         *jobUnits,
		StateDir:         *stateDir,
		WatchSubscribers: *watchSubs,
		WatchHeartbeat:   *watchBeat,
	})
	if err != nil {
		log.Fatal(err)
	}
	s.ingestToken = *ingestToken
	if *udpAddr != "" {
		udp, err := newUDPPlane(eng, *udpAddr, *flushEvery, *udpMaxQueue, *udpAllow)
		if err != nil {
			log.Fatal(err)
		}
		if err := udp.Start(); err != nil {
			log.Fatal(err)
		}
		log.Printf("thirstyflopsd UDP telemetry on %s (flush %s)", udp.Addr(), *flushEvery)
		s.udp = udp
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: s.handler(hardenConfig{
			MaxInflight:    *maxInflight,
			QueueDepth:     *admitQueue,
			QueueWait:      *queueWait,
			RequestTimeout: *reqTimeout,
		}),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second, // slow-header connections release early
		WriteTimeout:      5 * time.Minute,  // full-series responses are large
		IdleTimeout:       2 * time.Minute,
	}

	// Shutdown must stop the watch hub while srv.Shutdown waits: open
	// SSE streams only return once their subscribers are told to drain,
	// and Shutdown in turn waits for those handlers — RegisterOnShutdown
	// breaks the cycle by firing as the drain begins.
	srv.RegisterOnShutdown(s.shutdownWatch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("thirstyflopsd listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Print("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Fatal(err)
		}
		// In-flight HTTP requests have drained; cancel background jobs,
		// wait for their workers, and flush the persistence logs before
		// exiting.
		s.close()
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// buildStreams assembles the live-stream registry from the flags: one
// pinned stream per -live-systems entry, or a single wildcard stream when
// -live-systems is empty. Duplicate names are an error — silently
// replacing a stream would mis-route a fleet.
func buildStreams(liveSystems string, year, window int) (*thirstyflops.StreamRegistry, error) {
	reg := thirstyflops.NewStreamRegistry()
	names := []string{""}
	if liveSystems != "" {
		names = names[:0]
		seen := map[string]bool{}
		for _, n := range strings.Split(liveSystems, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if seen[n] {
				return nil, fmt.Errorf("duplicate system %q in -live-systems", n)
			}
			seen[n] = true
			names = append(names, n)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-live-systems names no systems")
		}
	}
	for _, n := range names {
		stream, err := thirstyflops.NewStream(n, year, window)
		if err != nil {
			return nil, err
		}
		reg.Register(stream)
	}
	return reg, nil
}

// newUDPPlane wires the statsd front end onto the Engine's stream
// registry: flushed samples route by system, systems without a
// registered stream are dropped (and counted) at accumulation time.
func newUDPPlane(eng *thirstyflops.Engine, addr string, flush time.Duration, maxQueue int, allow string) (*statsd.Server, error) {
	reg := eng.LiveStreams()
	if reg == nil || reg.Len() == 0 {
		return nil, fmt.Errorf("-udp-addr needs live streams (start with -live-window > 0)")
	}
	prefixes, err := statsd.ParseAllow(allow)
	if err != nil {
		return nil, err
	}
	return statsd.NewServer(statsd.Config{
		Addr:          addr,
		FlushInterval: flush,
		MaxQueue:      maxQueue,
		Allow:         prefixes,
		Sink:          reg.Ingest,
		Known:         func(system string) bool { return reg.Resolve(system) != nil },
	})
}

// Job-queue serving defaults (overridable by flags).
const (
	// defaultGangWindow is how long the first batch of a gang round
	// waits for company: long enough that genuinely concurrent /jobs
	// submissions merge, short enough to be invisible next to the
	// simulation cost of even one substrate year.
	defaultGangWindow     = 2 * time.Millisecond
	defaultJobRetain      = 64
	defaultJobConcurrency = 2
	defaultJobMaxUnits    = 100000
	defaultJobPageLimit   = 256
	maxJobPageLimit       = 4096
	maxJobBytes           = 16 << 20
	// seriesUnitCost is the job-budget weight of one include_series
	// request: a retained full-year Series is ~300 KB, roughly 256x a
	// plain result.
	seriesUnitCost = 256
)

// jobUnit is one request's outcome within an async job: the result, or
// the request-scoped error. Index is the position in the expanded batch,
// so paged reads line up with the submission regardless of page size.
type jobUnit struct {
	Index  int                        `json:"index"`
	Result *thirstyflops.AssessResult `json:"result,omitempty"`
	Error  string                     `json:"error,omitempty"`
}

// jobsConfig sizes the async job queue and the watch push plane.
type jobsConfig struct {
	Retain      int    // jobs retained for polling (0 disables /jobs)
	Concurrency int    // jobs executing at once
	MaxUnits    int    // max assessments one job may expand to
	StateDir    string // persistence directory; completed jobs survive restarts

	// Watch-plane sizing (watch.go); zero values take the defaults,
	// negative WatchSubscribers means unlimited.
	WatchSubscribers int
	WatchHeartbeat   time.Duration
}

// server binds the HTTP surface to one Engine plus its job queue and
// (when -udp-addr is set) the UDP telemetry plane.
type server struct {
	engine      *thirstyflops.Engine
	jobs        *jobqueue.Queue[jobUnit]
	jobsStore   *store.Store
	udp         *statsd.Server
	ingestToken string
	maxJobUnits int
	start       time.Time

	// Watch push plane (watch.go): nil when the engine has no live
	// streams, in which case GET /watch answers 503.
	watch          *watch.Hub[watchEvent]
	watchHeartbeat time.Duration

	// Hardening state (harden.go): the admission semaphore (nil when
	// unlimited) and the absorbed-panic counter surfaced on /healthz.
	gate   *gate
	panics atomic.Uint64
}

// jobsStoreSchema versions the durable job records (gob-encoded
// jobqueue.PersistedJob[jobUnit]); bump it when jobUnit or the
// AssessResult shape changes so stale files are discarded, not misread.
const jobsStoreSchema = 1

// newServer wires an Engine and an async job queue. With a StateDir,
// completed jobs are persisted to <dir>/jobs.log and replayed into the
// retention LRU, so results survive a daemon restart.
func newServer(eng *thirstyflops.Engine, cfg jobsConfig) (*server, error) {
	s := &server{engine: eng, maxJobUnits: cfg.MaxUnits, start: time.Now()}
	if s.maxJobUnits <= 0 {
		s.maxJobUnits = defaultJobMaxUnits
	}
	if cfg.Retain > 0 {
		var opts []jobqueue.Option[jobUnit]
		if cfg.StateDir != "" {
			// Degraded, not dead: like the engine's assess log, an
			// unusable jobs log downgrades to memory-only retention
			// with a warning rather than refusing to start.
			st, err := openJobsStore(cfg.StateDir)
			if err != nil {
				log.Printf("thirstyflopsd: jobs persistence unavailable, retaining in memory only: %v", err)
			} else {
				s.jobsStore = st
				opts = append(opts, jobqueue.WithPersister(&jobsPersister{st: st}))
			}
		}
		s.jobs = jobqueue.New[jobUnit](cfg.Retain, cfg.Concurrency, opts...)
	}
	if reg := eng.LiveStreams(); reg != nil && reg.Len() > 0 {
		s.initWatch(reg, cfg.WatchSubscribers, cfg.WatchHeartbeat)
	}
	return s, nil
}

// openJobsStore creates the state dir and opens the durable jobs log.
func openJobsStore(dir string) (*store.Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	st, err := store.Open(filepath.Join(dir, "jobs.log"), store.Options{
		Schema: jobsStoreSchema,
		// Durability over latency for completed sweeps: job
		// completion is rare next to the assess path, so block
		// on queue pressure instead of dropping results.
		BlockOnFull: true,
	})
	if err != nil {
		return nil, fmt.Errorf("open jobs log: %w", err)
	}
	return st, nil
}

// shutdownWatch drains the push plane: pumps stop and every open SSE
// stream is signaled to write its final shutdown event and return.
// Idempotent — registered as the http.Server's OnShutdown hook and run
// again from close() for non-HTTP teardown paths.
func (s *server) shutdownWatch() {
	if s.watch != nil {
		s.watch.Shutdown()
	}
}

// close stops the UDP plane (draining queued datagrams through a final
// flush), drains the watch hub, cancels background jobs, waits for
// their workers, and flushes the jobs log. Queue before store: its
// workers are the last writers.
func (s *server) close() {
	s.shutdownWatch()
	if s.udp != nil {
		if err := s.udp.Close(); err != nil {
			log.Printf("thirstyflopsd: udp close: %v", err)
		}
	}
	if s.jobs != nil {
		s.jobs.Close()
	}
	if s.jobsStore != nil {
		s.jobsStore.Close()
	}
}

// jobsPersister adapts the record log to the queue's durability hook:
// one gob-encoded PersistedJob per record, keyed by job ID. Every save
// syncs — a job's results are either fully durable or absent, never torn
// (the store's CRC framing discards a half-written tail at recovery).
type jobsPersister struct {
	st *store.Store
}

func (p *jobsPersister) SaveJob(pj jobqueue.PersistedJob[jobUnit]) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pj); err != nil {
		return err
	}
	if err := p.st.Put([]byte(pj.Snapshot.ID), buf.Bytes()); err != nil {
		return err
	}
	return p.st.Sync()
}

func (p *jobsPersister) DeleteJob(id string) error {
	return p.st.Delete([]byte(id))
}

func (p *jobsPersister) LoadJobs() ([]jobqueue.PersistedJob[jobUnit], error) {
	var out []jobqueue.PersistedJob[jobUnit]
	err := p.st.Range(func(_, val []byte) error {
		var pj jobqueue.PersistedJob[jobUnit]
		if err := gob.NewDecoder(bytes.NewReader(val)).Decode(&pj); err != nil {
			// An undecodable record (schema slip inside one value) is
			// dropped; the surviving jobs still replay.
			return nil
		}
		out = append(out, pj)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The queue orders the replay by submission time itself; Range order
	// is unspecified and fine here.
	return out, nil
}

// mux routes the JSON API. The /jobs routes use method patterns, so a
// wrong method there answers 405 from the mux itself.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/assess", s.handleAssess)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/water500", s.handleWater500)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/livez", s.handleLivez)
	return mux
}

// newMux routes the JSON API onto an Engine with default job-queue
// sizing and the always-on recovery middleware — the historical
// constructor, kept for tests and benchmarks.
func newMux(eng *thirstyflops.Engine) (http.Handler, error) {
	s, err := newServer(eng, jobsConfig{
		Retain:      defaultJobRetain,
		Concurrency: defaultJobConcurrency,
	})
	if err != nil {
		return nil, err
	}
	return s.handler(hardenConfig{}), nil
}

func (s *server) handleAssess(w http.ResponseWriter, r *http.Request) {
	var req thirstyflops.AssessRequest
	switch r.Method {
	case http.MethodPost:
		if status, err := decodeBounded(w, r, maxBodyBytes, &req); err != nil {
			writeError(w, status, err)
			return
		}
	case http.MethodGet:
		// GET builds the request from query parameters, so live checks
		// are one curl: /assess?system=Frontier&source=live.
	default:
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST an AssessRequest or GET with query parameters"))
		return
	}
	// Query parameters override the body for both methods.
	q := r.URL.Query()
	if v := q.Get("system"); v != "" {
		req.System = v
	}
	if v := q.Get("source"); v != "" {
		req.Source = v
	}
	var err error
	if req.Seed, req.Year, err = seedYearOverrides(q, req.Seed, req.Year); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.engine.Assess(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(r.Context(), err), err)
		return
	}
	// The one negotiated route: binary wire frames for clients that
	// accept them, JSON otherwise (codec.go).
	writeResult(w, r, res)
}

// seedYearOverrides applies the seed/year query parameters shared by the
// /assess and /water500 handlers on top of any body-supplied values.
func seedYearOverrides(q url.Values, seed *uint64, year *int) (*uint64, *int, error) {
	if v := q.Get("seed"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad seed %q", v)
		}
		seed = &s
	}
	if v := q.Get("year"); v != "" {
		y, err := strconv.Atoi(v)
		if err != nil {
			return nil, nil, fmt.Errorf("bad year %q", v)
		}
		year = &y
	}
	return seed, year, nil
}

// ingestBody is the POST /ingest response: per-batch accounting plus the
// fleet epoch after the batch (the sum of every stream's epoch — still
// monotonic), which a client can compare against the `live.epoch` of
// subsequent assessments. Systems maps each live stream that accepted
// samples to its count, so multi-stream clients can verify routing.
type ingestBody struct {
	Accepted int            `json:"accepted"`
	Rejected int            `json:"rejected"`
	Epoch    uint64         `json:"epoch"`
	Systems  map[string]int `json:"systems,omitempty"`
	Errors   []string       `json:"errors,omitempty"`
}

// maxIngestErrors bounds the per-sample error list echoed to the client;
// maxIngestBytes bounds the request body (generous for a full year of
// NDJSON samples).
const (
	maxIngestErrors = 8
	maxIngestBytes  = 16 << 20
)

// authorized enforces the -ingest-token bearer scheme; an unset token
// leaves the endpoint open.
func (s *server) authorized(r *http.Request) bool {
	if s.ingestToken == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const scheme = "Bearer "
	if len(auth) <= len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
		return false
	}
	// Constant-time comparison: the token is a credential.
	return subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(s.ingestToken)) == 1
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST samples as JSON, a JSON array, or NDJSON"))
		return
	}
	if !s.authorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="thirstyflopsd"`)
		writeError(w, http.StatusUnauthorized, errors.New("ingest requires 'Authorization: Bearer <token>'"))
		return
	}
	reg := s.engine.LiveStreams()
	if reg == nil || reg.Len() == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("live ingestion disabled (start with -live-window > 0)"))
		return
	}
	// MaxBytesReader bounds the body in bytes — the decoder's sample
	// count limit alone would still buffer one arbitrarily large token.
	samples, err := thirstyflops.DecodeSamples(http.MaxBytesReader(w, r.Body, maxIngestBytes), 0)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Overflow is 413 on every JSON POST route, not a decode error.
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	if len(samples) == 0 {
		// A well-formed empty array decodes to zero samples. Guarding
		// here keeps the zero-sample batch out of the status switch
		// below, whose routing-miss case (Accepted == 0 && noStream ==
		// Rejected) holds vacuously at len(samples) == 0 and would
		// misreport the batch as a 404.
		writeError(w, http.StatusBadRequest, errors.New("empty batch: no samples to ingest"))
		return
	}
	// Route sample-by-sample so the response can attribute acceptance to
	// each stream: clients verify multi-stream routing from Systems.
	body := ingestBody{}
	noStream, wildcardHit := 0, false
	for i, smp := range samples {
		stream := reg.Resolve(smp.System)
		if stream == nil {
			noStream++
			body.appendError(fmt.Errorf("sample %d: %w: %q", i, thirstyflops.ErrNoLiveStream, smp.System))
			continue
		}
		if err := stream.Ingest(smp); err != nil {
			body.appendError(fmt.Errorf("sample %d: %w", i, err))
			continue
		}
		body.Accepted++
		sys := stream.System()
		if sys == "" {
			sys = smp.System // wildcard stream: report the routed name
			wildcardHit = true
		}
		if body.Systems == nil {
			body.Systems = make(map[string]int)
		}
		body.Systems[sys]++
	}
	body.Rejected = len(samples) - body.Accepted
	// One poke per advanced system per batch — this handler routes
	// straight to the streams (bypassing the registry's OnAdvance hook)
	// so it notifies the push plane itself. A wildcard-routed accept
	// shifts every watched system's assessment.
	if s.watch != nil && body.Accepted > 0 {
		if wildcardHit {
			s.watch.PokeAll()
		} else {
			for sys := range body.Systems {
				s.watch.Poke(sys)
			}
		}
	}
	body.Epoch = telemetry.Summarize(reg.Statuses()).Epoch
	status := http.StatusOK
	switch {
	case body.Accepted == 0 && noStream == body.Rejected:
		// Every sample named a system with no registered stream: a
		// routing miss, not a malformed batch.
		status = http.StatusNotFound
	case body.Accepted == 0:
		// Nothing landed: the whole batch was unusable.
		status = http.StatusUnprocessableEntity
	}
	writeBody(w, r, status, body)
}

// appendError folds one per-sample error into the bounded echo list.
func (b *ingestBody) appendError(err error) {
	if len(b.Errors) >= maxIngestErrors {
		if len(b.Errors) == maxIngestErrors {
			b.Errors = append(b.Errors, "...")
		}
		return
	}
	b.Errors = append(b.Errors, err.Error())
}

// livezBody is the GET /livez response: the backward-compatible fleet
// summary at the top level (every pre-registry field keeps its place),
// per-system stream statuses under "streams", and the UDP telemetry
// plane's listener/aggregator/drop counters under "udp" when -udp-addr
// is serving.
type livezBody struct {
	telemetry.Status
	Streams []telemetry.Status `json:"streams"`
	UDP     *statsd.Stats      `json:"udp,omitempty"`
	Watch   *watch.Stats       `json:"watch,omitempty"`
}

func (s *server) handleLivez(w http.ResponseWriter, r *http.Request) {
	reg := s.engine.LiveStreams()
	if reg == nil || reg.Len() == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("no live stream attached"))
		return
	}
	sts := reg.Statuses()
	body := livezBody{Status: telemetry.Summarize(sts), Streams: sts}
	if s.udp != nil {
		st := s.udp.Stats()
		body.UDP = &st
	}
	if s.watch != nil {
		st := s.watch.Stats()
		body.Watch = &st
	}
	writeBody(w, r, http.StatusOK, body)
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST a SweepRequest"))
		return
	}
	var req thirstyflops.SweepRequest
	if status, err := decodeBounded(w, r, maxBodyBytes, &req); err != nil {
		writeError(w, status, err)
		return
	}
	res, err := s.engine.Sweep(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(r.Context(), err), err)
		return
	}
	writeBody(w, r, http.StatusOK, res)
}

func (s *server) handleWater500(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET or POST"))
		return
	}
	var req thirstyflops.Water500Request
	if r.Method == http.MethodPost {
		if status, err := decodeBounded(w, r, maxBodyBytes, &req); err != nil {
			writeError(w, status, err)
			return
		}
	}
	// Query parameters override the body for both methods.
	var err error
	if req.Seed, req.Year, err = seedYearOverrides(r.URL.Query(), req.Seed, req.Year); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.engine.Water500(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(r.Context(), err), err)
		return
	}
	writeBody(w, r, http.StatusOK, res)
}

// requireJobs resolves the job queue or answers 503.
func (s *server) requireJobs(w http.ResponseWriter) *jobqueue.Queue[jobUnit] {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("async jobs disabled (start with -jobs > 0)"))
	}
	return s.jobs
}

func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	q := s.requireJobs(w)
	if q == nil {
		return
	}
	var batch thirstyflops.BatchRequest
	if status, err := decodeBounded(w, r, maxJobBytes, &batch); err != nil {
		writeError(w, status, err)
		return
	}
	// Deduplicate the cross-product template before sizing: repeated
	// system names (or seeds, or years) silently multiply simulated
	// units and burn the -job-max-units budget on work whose results
	// are copies of each other. The collapsed count is attributed in
	// every status response for the job.
	batch, collapsed := batch.Normalize()
	// Size the submission before Expand allocates: a kilobyte template
	// can describe a billion-unit cross-product.
	if units := batch.Units(); units > s.maxJobUnits {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("job expands to %d assessments, limit %d", units, s.maxJobUnits))
		return
	}
	reqs, err := batch.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The unit cap bounds retained memory, not just compute: a request
	// with include_series pins a full 8760-hour Series (~300 KB vs ~1 KB
	// for a plain result) in the retained job, so it consumes
	// seriesUnitCost units of the same budget.
	weighted := len(reqs)
	for _, r := range reqs {
		if r.IncludeSeries {
			weighted += seriesUnitCost - 1
		}
	}
	if weighted > s.maxJobUnits {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("job weighs %d units (%d assessments, include_series weighted %dx), limit %d",
				weighted, len(reqs), seriesUnitCost, s.maxJobUnits))
		return
	}
	job, err := q.Submit(len(reqs), func(ctx context.Context, progress func(int)) ([]jobUnit, error) {
		units := make([]jobUnit, len(reqs))
		var done atomic.Int64
		// The batch executes through the Engine's substrate-aware
		// planner; per-request failures land in their unit, so one bad
		// request doesn't fail the sweep.
		_, _ = s.engine.AssessBatch(ctx, reqs, func(i int, res *thirstyflops.AssessResult, err error) {
			u := jobUnit{Index: i, Result: res}
			if err != nil {
				u.Error = err.Error()
			}
			units[i] = u
			progress(int(done.Add(1)))
		})
		if err := ctx.Err(); err != nil {
			// Partial results survive cancellation and timeout: every
			// unit slot is annotated (AssessBatch reports unstarted
			// units with the context error), so clients page whatever
			// completed before the cancel landed.
			return units, context.Cause(ctx)
		}
		return units, nil
	}, jobqueue.WithCollapsed[jobUnit](collapsed))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID())
	writeBody(w, r, http.StatusAccepted, job.Snapshot())
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	q := s.requireJobs(w)
	if q == nil {
		return
	}
	job, ok := q.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job (completed jobs are evicted least-recently-polled first)"))
		return
	}
	writeBody(w, r, http.StatusOK, job.Snapshot())
}

// jobResultBody is the GET /jobs/{id}/result response: one page of the
// result set plus enough cursor state to fetch the next.
type jobResultBody struct {
	ID     string          `json:"id"`
	Status jobqueue.Status `json:"status"`
	Error  string          `json:"error,omitempty"`
	Total  int             `json:"total"`
	Offset int             `json:"offset"`
	Count  int             `json:"count"`
	// NextOffset is present while more pages remain.
	NextOffset *int      `json:"next_offset,omitempty"`
	Results    []jobUnit `json:"results"`
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	q := s.requireJobs(w)
	if q == nil {
		return
	}
	job, ok := q.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job (completed jobs are evicted least-recently-polled first)"))
		return
	}
	// NDJSON streaming sidesteps page-size limits entirely: units are
	// written one by one from Page cursors (codec.go), so a missing
	// limit streams the whole result set in constant memory.
	stream := acceptsMedia(r.Header.Get("Accept"), ctNDJSON)
	qs := r.URL.Query()
	offset, limit := 0, defaultJobPageLimit
	if stream {
		limit = 0
	}
	if v := qs.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", v))
			return
		}
		offset = n
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
		if !stream {
			limit = min(n, maxJobPageLimit)
		}
	}
	page, ready := job.Page(offset, limit)
	if !ready {
		snap := job.Snapshot()
		writeError(w, http.StatusConflict,
			fmt.Errorf("job is %s (%d/%d); results are served once it finishes", snap.Status, snap.Completed, snap.Total))
		return
	}
	if stream {
		streamJobResult(w, r, job, offset, limit)
		return
	}
	snap := job.Snapshot()
	stored, _ := job.ResultLen()
	body := jobResultBody{
		ID:      snap.ID,
		Status:  snap.Status,
		Error:   snap.Error,
		Total:   snap.Total,
		Offset:  offset,
		Count:   len(page),
		Results: page,
	}
	// The cursor advances through every terminal status: failed and
	// canceled jobs page their partial results too, so the chain is
	// bounded by the units actually stored, not the submitted total.
	if next := offset + len(page); len(page) > 0 && next < stored {
		body.NextOffset = &next
	}
	writeBody(w, r, http.StatusOK, body)
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	q := s.requireJobs(w)
	if q == nil {
		return
	}
	job, ok := q.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	// Cancellation is asynchronous: the job reaches "canceled" once its
	// workers observe the context.
	writeBody(w, r, http.StatusAccepted, job.Snapshot())
}

// jobsHealth summarizes the queue for /healthz. Durable is the number of
// completed jobs persisted on disk (present only with -state-dir); the
// resilience counters record contained RunFunc panics and the persist
// retry ledger.
type jobsHealth struct {
	Retained     int    `json:"retained"`
	Lookups      uint64 `json:"lookups"`
	Durable      *int   `json:"durable,omitempty"`
	Panics       uint64 `json:"panics"`
	SaveRetries  uint64 `json:"save_retries"`
	SaveFailures uint64 `json:"save_failures"`
}

// liveHealth summarizes the live-telemetry plane for /healthz: which
// systems have registered streams (so clients can verify routing
// targets), whether /ingest requires a token, and the UDP plane's
// counters when one is listening.
type liveHealth struct {
	Systems       []string      `json:"systems"`
	AuthRequired  bool          `json:"auth_required"`
	SamplesTotal  uint64        `json:"samples_accepted"`
	RejectedTotal uint64        `json:"samples_rejected"`
	UDP           *statsd.Stats `json:"udp,omitempty"`
}

// healthBody is the /healthz response. Status flips to "degraded" (and
// Degraded to true) while the disk tier is bypassed — breaker open or
// persistence never attached; the daemon still serves from memory, so
// liveness probes keep passing while capacity probes can tell the
// difference. Breaker mirrors cache.disk.breaker at the top level for
// dashboards that only scrape scalar fields.
type healthBody struct {
	Status        string                  `json:"status"`
	Degraded      bool                    `json:"degraded"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Cache         thirstyflops.CacheStats `json:"cache"`
	Breaker       *breaker.Snapshot       `json:"breaker,omitempty"`
	HTTP          httpHealth              `json:"http"`
	Live          *liveHealth             `json:"live,omitempty"`
	Watch         *watch.Stats            `json:"watch,omitempty"`
	Jobs          *jobsHealth             `json:"jobs,omitempty"`
	Gang          *gangHealth             `json:"gang,omitempty"`
}

// gangHealth is the /healthz gang block (always present; merged_batches
// stays 0 under -gang-window=0): the batch scheduler's counters plus the
// substrate layer's cross-job hit count — generator years one job
// computed and another consumed.
type gangHealth struct {
	gang.Stats
	CrossJobSubstrateHits uint64 `json:"cross_job_substrate_hits"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.engine.CacheStats(),
		HTTP:          s.httpStats(),
	}
	if s.engine.DiskDegraded() {
		body.Status = "degraded"
		body.Degraded = true
	}
	if d := body.Cache.Disk; d != nil {
		body.Breaker = d.Breaker
	}
	body.Gang = &gangHealth{
		Stats:                 *body.Cache.Gang,
		CrossJobSubstrateHits: body.Cache.Substrate.CrossJobHits,
	}
	if reg := s.engine.LiveStreams(); reg != nil && reg.Len() > 0 {
		sum := telemetry.Summarize(reg.Statuses())
		body.Live = &liveHealth{
			Systems:       reg.Systems(),
			AuthRequired:  s.ingestToken != "",
			SamplesTotal:  sum.Accepted,
			RejectedTotal: sum.Rejected,
		}
		if s.udp != nil {
			st := s.udp.Stats()
			body.Live.UDP = &st
		}
	}
	if s.watch != nil {
		st := s.watch.Stats()
		body.Watch = &st
	}
	if s.jobs != nil {
		st := s.jobs.Stats()
		jh := s.jobs.Health()
		body.Jobs = &jobsHealth{
			Retained:     st.Entries,
			Lookups:      st.Hits + st.Misses,
			Panics:       jh.Panics,
			SaveRetries:  jh.SaveRetries,
			SaveFailures: jh.SaveFailures,
		}
		if s.jobsStore != nil {
			n := s.jobsStore.Stats().Entries
			body.Jobs.Durable = &n
		}
	}
	writeBody(w, r, http.StatusOK, body)
}
