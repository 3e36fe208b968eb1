package thirstyflops

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"thirstyflops/internal/breaker"
	"thirstyflops/internal/cache"
	"thirstyflops/internal/configio"
	"thirstyflops/internal/core"
	"thirstyflops/internal/embodied"
	"thirstyflops/internal/faultinject"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/gang"
	"thirstyflops/internal/plan"
	"thirstyflops/internal/store"
	"thirstyflops/internal/substrate"
	"thirstyflops/internal/telemetry"
)

// Engine is a reusable, concurrency-safe assessment session. The yearly
// simulation behind an assessment is a pure function of the Config (which
// embeds Seed and Year), so the Engine memoizes it: repeated requests for
// the same configuration — across goroutines, sweeps, rankings, and HTTP
// handlers — simulate once and share the result. An Engine is cheap
// enough to create per process and is safe for use from multiple
// goroutines; the zero value is not usable, construct one with NewEngine.
//
// The memo is split into power-of-two shards selected by a fingerprint
// prefix. Each shard carries its own mutex and an O(1) doubly-linked LRU,
// so concurrent requests for different configurations do not serialize on
// a single cache lock and a hit never pays a linear recency scan.
type Engine struct {
	workers    int
	maxEntries int
	shards     []*cache.Cache[fingerprint.Key, core.Annual]
	streams    *telemetry.Registry

	// Persistence tier under the in-memory shards (WithPersistence):
	// memoized simulated years spill to an append-only disk log keyed by
	// the same fingerprint, so a restarted process answers previously
	// assessed configurations without recomputing. store is nil when
	// persistence is off; storeErr records why an Open failed (the
	// Engine then runs memory-only).
	persistDir string
	storeFS    faultinject.FS
	store      *store.Store
	storeErr   error

	// disk is the error-budget circuit breaker in front of the
	// persistence tier (non-nil exactly when store is): consecutive
	// append/read failures trip it open, the Engine serves memory-only
	// (skips counted), and a half-open probe — a store.Sync, which
	// exercises the whole write path including rehabilitation — closes
	// it when the disk recovers.
	disk        *breaker.Breaker
	breakerOpts breaker.Options

	// assessHook, when set, runs before every simulation — the
	// fault-injection seam on the assess path (WithAssessHook). A
	// returned error fails the assessment; the hook may also sleep
	// (latency injection) or panic (containment testing).
	assessHook func(system string) error

	diskHits      atomic.Uint64
	diskMisses    atomic.Uint64
	diskDecodeErr atomic.Uint64
	diskSkips     atomic.Uint64

	// Substrate-layer lookups made on this Engine's behalf, split by
	// whether the triggering assessment was scheduled by the sweep
	// planner (a batch) or was a single Assess call. The split is how
	// planner effectiveness is observed in production
	// (CacheStats.Substrate). The cross-job pair is a subset of the
	// planned pair: lookups whose unit was co-scheduled by the gang
	// scheduler into a substrate group spanning more than one batch.
	subPlannedHits     atomic.Uint64
	subPlannedMisses   atomic.Uint64
	subUnplannedHits   atomic.Uint64
	subUnplannedMisses atomic.Uint64
	subCrossJobHits    atomic.Uint64
	subCrossJobMisses  atomic.Uint64

	// gangWindow/gangSched are the batch execution layer
	// (WithGangWindow): every AssessBatch and Water500 call runs through
	// the one scheduler, which merges batches arriving within a positive
	// window into a single substrate-affine schedule and runs each batch
	// as its own round when the window is zero.
	gangWindow time.Duration
	gangSched  *gang.Scheduler
}

// subTag tags a substrate lookup with how its assessment was scheduled,
// for the planner-effectiveness split in CacheStats.Substrate.
type subTag uint8

const (
	// subUnplanned: single Assess calls.
	subUnplanned subTag = iota
	// subPlanned: scheduled by the sweep planner as part of a batch.
	subPlanned
	// subCrossJob: planned, and the unit's substrate group in the gang
	// scheduler's merged round held units from more than one batch —
	// the lookup also counts toward the planned pair.
	subCrossJob
)

// Option configures an Engine.
type Option func(*Engine)

// WithCache bounds the total number of memoized assessments (default 64).
// Least-recently-touched entries are evicted first. The bound is
// apportioned across the cache shards, so the effective capacity is n
// rounded down to a multiple of the shard count. n <= 0 disables caching.
func WithCache(n int) Option {
	return func(e *Engine) { e.maxEntries = n }
}

// WithWorkers sets how many workers the batch scheduler spreads one
// round across — the AssessMany/Sweep/Water500 fan-out width (default
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithLiveStreams attaches a telemetry stream registry
// (NewStreamRegistry): Engine.Ingest feeds it and requests with Source
// "live" answer against a simulated year spliced with the observed
// demand of their system's stream (a stream with an empty label is the
// wildcard fallback). Live results are cached under a key that chains
// the configuration fingerprint with the stream epoch, so a cached
// assessment can never survive past the samples it was computed from.
// The daemon shares one registry between the Engine and the UDP
// telemetry plane.
func WithLiveStreams(r *telemetry.Registry) Option {
	return func(e *Engine) { e.streams = r }
}

// WithGangWindow sets the merge window of the batch scheduler
// (internal/gang): AssessBatch and Water500 calls arriving within d of
// each other merge into one substrate-affine schedule, so concurrent
// batches sweeping the same sites generate each shared substrate year
// once fleet-wide instead of once per batch. Per-batch context
// cancellation is still honored — canceling one batch never cancels
// co-scheduled units of another. d <= 0 (the default) merges nothing:
// each batch is planned and run as its own round, so requests sharing a
// substrate still run consecutively on one worker.
func WithGangWindow(d time.Duration) Option {
	return func(e *Engine) { e.gangWindow = d }
}

// WithPersistence attaches the disk tier: memoized assessments are
// written through to an append-only record log under dir (created if
// absent) and consulted on cache misses, so a fresh Engine on the same
// directory — typically a restarted daemon — serves previously assessed
// configurations from disk instead of recomputing them. Appends are
// asynchronous behind a bounded queue and never block the assess path;
// under sustained pressure a write may be dropped (it is a cache, the
// entry is simply recomputed next time). Check PersistenceError after
// NewEngine and Close the Engine to flush the log on shutdown.
func WithPersistence(dir string) Option {
	return func(e *Engine) { e.persistDir = dir }
}

// WithStoreFS sets the filesystem the persistence tier runs on (default
// the real one). Tests inject a faultinject.Injector to replay disk
// failures deterministically through the whole engine stack.
func WithStoreFS(fs faultinject.FS) Option {
	return func(e *Engine) { e.storeFS = fs }
}

// WithDiskBreaker tunes the persistence tier's circuit breaker — the
// failure threshold, the open-state cooldown, and (in tests) the clock.
// Without it the breaker runs with the breaker package defaults.
func WithDiskBreaker(opts breaker.Options) Option {
	return func(e *Engine) { e.breakerOpts = opts }
}

// WithAssessHook installs a hook that runs before every simulation —
// the fault-injection seam on the assess path. A returned error fails
// that assessment (per-unit: the rest of a batch proceeds); the hook
// may also sleep to inject latency, or panic to exercise containment.
// Wire a faultinject.Injector with
//
//	WithAssessHook(func(system string) error {
//	    return inj.Fire(faultinject.OpAssess, system)
//	})
func WithAssessHook(h func(system string) error) Option {
	return func(e *Engine) { e.assessHook = h }
}

// assessStoreSchema versions the on-disk assessment records. Bump it
// whenever the configuration fingerprint encoding (internal/fingerprint
// writers or core.Config.Fingerprint field coverage) or the gob shape of
// core.Annual changes: a store written under any other schema is
// discarded at open rather than misread.
const assessStoreSchema = 1

// assessLogName is the record log's filename inside the persistence dir.
const assessLogName = "assess.log"

// defaultShards is the shard-count ceiling: enough to relieve contention
// at typical serving parallelism without fragmenting small caches.
const defaultShards = 8

// shardCount resolves the effective power-of-two shard count:
// min(8, capacity/4), at least 1, so sharding keeps at least 4 entries
// per shard and never costs meaningful capacity at small cache sizes.
func (e *Engine) shardCount() int {
	n := 1
	for n*2 <= min(defaultShards, e.maxEntries/4) {
		n *= 2
	}
	return n
}

// NewEngine builds an assessment session.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		workers:    runtime.GOMAXPROCS(0),
		maxEntries: 64,
	}
	for _, o := range opts {
		o(e)
	}
	if e.maxEntries > 0 {
		shards := e.shardCount()
		perShard := e.maxEntries / shards
		e.shards = make([]*cache.Cache[fingerprint.Key, core.Annual], shards)
		for i := range e.shards {
			e.shards[i] = cache.New[fingerprint.Key, core.Annual](perShard)
		}
	}
	if e.persistDir != "" {
		e.disk = breaker.New(e.breakerOpts)
		if err := os.MkdirAll(e.persistDir, 0o755); err != nil {
			e.storeErr = fmt.Errorf("thirstyflops: persistence dir: %w", err)
		} else if st, err := store.Open(filepath.Join(e.persistDir, assessLogName), store.Options{
			Schema: assessStoreSchema,
			FS:     e.storeFS,
			// Asynchronous write failures (batch append, flush, automatic
			// compaction) spend the breaker's error budget; the store has
			// already counted and contained them.
			OnWriteError: func(err error) { e.disk.Record(err) },
		}); err != nil {
			e.storeErr = fmt.Errorf("thirstyflops: open persistence log: %w", err)
		} else {
			e.store = st
		}
		if e.store == nil {
			e.disk = nil
		}
	}
	e.gangSched = gang.New(e.gangWindow, e.workers)
	return e
}

// PersistenceError reports why WithPersistence could not open its disk
// log (nil when persistence is healthy or was never requested). An
// Engine with a persistence error still works memory-only.
func (e *Engine) PersistenceError() error { return e.storeErr }

// Close flushes and releases the persistence tier. It is a no-op for
// memory-only Engines. The Engine must not be used after Close.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	return e.store.Close()
}

// CacheStats reports the Engine's memoization behavior: the sharded
// assessment memo plus the substrate layer beneath it.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`

	// Substrate reports the generator-year layer: process-wide totals
	// plus this Engine's lookups split by planned vs. unplanned
	// execution.
	Substrate SubstrateStats `json:"substrate"`

	// Gang reports the batch scheduler (always present; MergedBatches
	// stays zero under a zero WithGangWindow): how many batches merged
	// into shared rounds and how many units were co-scheduled across
	// jobs.
	Gang *gang.Stats `json:"gang,omitempty"`

	// Disk reports the persistence tier (nil when WithPersistence is not
	// in effect). A warm restart shows up here as Hits with zero
	// substrate misses: the year came off the log, not from a recompute.
	Disk *DiskStats `json:"disk,omitempty"`
}

// DiskStats snapshots the persistence tier: the Engine-level outcome
// counters (a Hit is a memo miss answered from disk; a Miss fell through
// to the simulator; DecodeErrors are records rejected by the gob decoder
// and recomputed) plus the record log's own accounting.
type DiskStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	DecodeErrors uint64 `json:"decode_errors"`

	Entries        int    `json:"entries"`
	Appends        uint64 `json:"appends"`
	Dropped        uint64 `json:"dropped"`
	SizeBytes      int64  `json:"size_bytes"`
	Compactions    uint64 `json:"compactions"`
	Recovered      int    `json:"recovered"`
	TruncatedBytes int64  `json:"truncated_bytes"`

	// Resilience view: Degraded is true while the circuit breaker holds
	// the disk tier out of the serving path (the Engine answers
	// memory-only, counting each bypassed disk access in Skips);
	// WriteErrors/ReadErrors/Rehabs/Wedged/Pending mirror the store's own
	// failure accounting, and Breaker snapshots the state machine.
	Degraded    bool              `json:"degraded"`
	Skips       uint64            `json:"skips"`
	WriteErrors uint64            `json:"write_errors"`
	ReadErrors  uint64            `json:"read_errors"`
	Rehabs      uint64            `json:"rehabs"`
	Wedged      bool              `json:"wedged"`
	Pending     int               `json:"pending"`
	Breaker     *breaker.Snapshot `json:"breaker,omitempty"`
}

// SubstrateStats snapshots the substrate layer (the memoized generator
// years behind assessments). Hits/Misses/Entries are process-wide — the
// layer is shared by every Engine — while the planned/unplanned split
// counts only lookups made on this Engine's behalf: a lookup is
// "planned" when the triggering assessment ran as part of a batch
// (AssessMany/AssessBatch/Sweep/Water500, all scheduled by the planner)
// and "unplanned" when it came from a single Assess call. A healthy
// planned/unplanned hit-rate gap is the planner doing its job.
type SubstrateStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`

	PlannedHits     uint64 `json:"planned_hits"`
	PlannedMisses   uint64 `json:"planned_misses"`
	UnplannedHits   uint64 `json:"unplanned_hits"`
	UnplannedMisses uint64 `json:"unplanned_misses"`

	// CrossJobHits/CrossJobMisses are the subset of the planned pair made
	// by units the gang scheduler co-scheduled into a substrate group
	// spanning more than one batch. CrossJobHits > 0 is fleet-wide
	// sharing working: a year generated by one job answered another.
	CrossJobHits   uint64 `json:"cross_job_hits"`
	CrossJobMisses uint64 `json:"cross_job_misses"`
}

// CacheStats returns a snapshot of the cache counters, aggregated across
// shards, plus the substrate-layer view.
func (e *Engine) CacheStats() CacheStats {
	var out CacheStats
	for _, sh := range e.shards {
		s := sh.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Entries += s.Entries
	}
	sub := substrate.Stats()
	out.Substrate = SubstrateStats{
		Hits:            sub.Hits,
		Misses:          sub.Misses,
		Entries:         sub.Entries,
		PlannedHits:     e.subPlannedHits.Load(),
		PlannedMisses:   e.subPlannedMisses.Load(),
		UnplannedHits:   e.subUnplannedHits.Load(),
		UnplannedMisses: e.subUnplannedMisses.Load(),
		CrossJobHits:    e.subCrossJobHits.Load(),
		CrossJobMisses:  e.subCrossJobMisses.Load(),
	}
	g := e.gangSched.Stats()
	out.Gang = &g
	if e.store != nil {
		st := e.store.Stats()
		snap := e.disk.Snapshot()
		out.Disk = &DiskStats{
			Hits:           e.diskHits.Load(),
			Misses:         e.diskMisses.Load(),
			DecodeErrors:   e.diskDecodeErr.Load(),
			Entries:        st.Entries,
			Appends:        st.Appended,
			Dropped:        st.Dropped,
			SizeBytes:      st.SizeBytes,
			Compactions:    st.Compactions,
			Recovered:      st.Recovered,
			TruncatedBytes: st.TruncatedBytes,
			Degraded:       snap.State != "closed",
			Skips:          e.diskSkips.Load(),
			WriteErrors:    st.WriteErrors,
			ReadErrors:     st.ReadErrors,
			Rehabs:         st.Rehabs,
			Wedged:         st.Wedged,
			Pending:        st.Pending,
			Breaker:        &snap,
		}
	}
	return out
}

// DiskDegraded reports whether the persistence tier is currently out of
// the serving path — either the breaker is not closed, or persistence
// was requested but never opened (storeErr). False when persistence was
// never requested.
func (e *Engine) DiskDegraded() bool {
	if e.storeErr != nil {
		return true
	}
	if e.disk == nil {
		return false
	}
	return e.disk.State() != breaker.Closed
}

// diskGate asks the breaker whether a disk access may proceed. A Probe
// decision runs a store.Sync — draining the queue, rehabilitating a
// wedged write path, and fsyncing, so "the probe succeeded" means the
// write path demonstrably works — and reports it to the breaker; a Deny
// counts a skip. Successful reads and writes are deliberately NOT
// reported as breaker successes: the store's writes are asynchronous
// (their failures arrive later via OnWriteError), so only a probe —
// which proves the write path synchronously — may close the breaker or
// reset the failure run.
func (e *Engine) diskGate() bool {
	switch e.disk.Acquire() {
	case breaker.Go:
		return true
	case breaker.Probe:
		err := e.store.Sync()
		e.disk.ProbeResult(err)
		if err != nil {
			e.diskSkips.Add(1)
			return false
		}
		return true
	default:
		e.diskSkips.Add(1)
		return false
	}
}

// diskLookup consults the persistence log for a memoized year. Decode
// failures (a record written by a buggy or interrupted producer) are
// counted and treated as misses — the year is recomputed and the fresh
// append supersedes the bad record. Read failures spend the breaker's
// error budget; while the breaker is open the lookup is skipped
// entirely and the Engine serves memory-only.
func (e *Engine) diskLookup(key fingerprint.Key) (core.Annual, bool) {
	if !e.diskGate() {
		e.diskMisses.Add(1)
		return core.Annual{}, false
	}
	raw, ok, err := e.store.Get(key[:])
	if err != nil {
		e.disk.Record(err)
		e.diskMisses.Add(1)
		return core.Annual{}, false
	}
	if !ok {
		e.diskMisses.Add(1)
		return core.Annual{}, false
	}
	var a core.Annual
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&a); err != nil {
		e.diskDecodeErr.Add(1)
		e.diskMisses.Add(1)
		return core.Annual{}, false
	}
	e.diskHits.Add(1)
	// The record holds only the exported fields; rebuilding restores the
	// carried water intensities (the aggregates come out identical).
	return core.AnnualFrom(a.System, a.Hourly), true
}

// diskAppend writes a freshly simulated year through to the log. The
// append is asynchronous and may be dropped under queue pressure
// (observable as DiskStats.Dropped); the persistence tier is a cache,
// so a dropped record merely costs a recompute after the next restart.
// While the breaker is open the append is skipped (drop-and-count). A
// full queue (ErrBusy) is backpressure, not a disk failure, and does
// not spend the error budget — the disk's own failures arrive through
// the store's OnWriteError callback.
func (e *Engine) diskAppend(key fingerprint.Key, a core.Annual) {
	if !e.diskGate() {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		return
	}
	if err := e.store.Put(key[:], buf.Bytes()); err != nil && !errors.Is(err, store.ErrBusy) {
		e.disk.Record(err)
	}
}

// simulate runs the (hooked) hourly simulation for cfg — the single
// funnel every memo/disk miss falls through, so the assess-path fault
// hook sees exactly the computations that really happen.
func (e *Engine) simulate(cfg Config, tag subTag) (core.Annual, error) {
	if e.assessHook != nil {
		if err := e.assessHook(cfg.System.Name); err != nil {
			return core.Annual{}, err
		}
	}
	a, tr, err := cfg.AssessTraced()
	e.noteSubstrate(tag, tr)
	return a, err
}

// noteSubstrate folds one assessment's substrate trace into the
// planned/unplanned counters. Cross-job lookups count into both the
// planned pair (they are planned) and the cross-job subset.
func (e *Engine) noteSubstrate(tag subTag, tr core.SubstrateTrace) {
	switch tag {
	case subCrossJob:
		e.subCrossJobHits.Add(tr.Hits)
		e.subCrossJobMisses.Add(tr.Misses)
		fallthrough
	case subPlanned:
		e.subPlannedHits.Add(tr.Hits)
		e.subPlannedMisses.Add(tr.Misses)
	default:
		e.subUnplannedHits.Add(tr.Hits)
		e.subUnplannedMisses.Add(tr.Misses)
	}
}

// annualFor returns the memoized assessment of cfg, simulating at most
// once per fingerprint. The second return reports whether the result was
// served from cache. The fingerprint (core.Config.Fingerprint) streams a
// canonical binary encoding through a pooled hasher, so the cached path
// allocates nothing for key derivation. tag classifies the substrate
// lookups a cache miss performs for the planner-effectiveness split in
// CacheStats; a hit touches no substrate at all.
// A memo miss consults the persistence log (when attached) before
// simulating, and writes a fresh simulation through to it; an in-memory
// hit touches neither disk nor substrate.
func (e *Engine) annualFor(cfg Config, tag subTag) (core.Annual, bool, error) {
	if e.maxEntries <= 0 && e.store == nil {
		a, err := e.simulate(cfg, tag)
		return a, false, err
	}
	key := cfg.Fingerprint()
	compute := func() (core.Annual, error) {
		if e.store != nil {
			if a, ok := e.diskLookup(key); ok {
				return a, nil
			}
		}
		a, err := e.simulate(cfg, tag)
		if err == nil && e.store != nil {
			e.diskAppend(key, a)
		}
		return a, err
	}
	if e.maxEntries <= 0 {
		a, err := compute()
		return a, false, err
	}
	shard := e.shards[key.Shard(len(e.shards))]
	return shard.Get(key, compute)
}

// --- Live telemetry ---

// LiveStreams returns the Engine's stream registry (nil when the Engine
// runs simulation-only): one telemetry.Stream per fleet system, plus an
// optional wildcard. The daemon's /livez and the UDP telemetry plane
// read and feed it directly.
func (e *Engine) LiveStreams() *telemetry.Registry { return e.streams }

// Ingest routes observed power samples to their systems' live streams,
// returning how many were accepted. A sample naming a system with no
// registered stream fails with an error wrapping telemetry.ErrNoStream;
// rejected samples (non-finite or negative power, hours behind the
// retained window, foreign systems) are reported in the joined error
// while the rest of the batch proceeds.
func (e *Engine) Ingest(samples ...telemetry.Sample) (accepted int, err error) {
	if e.streams == nil || e.streams.Len() == 0 {
		return 0, fmt.Errorf("thirstyflops: engine has no live stream (construct with WithLiveStreams)")
	}
	errs := make([]error, 0, 4)
	for i, s := range samples {
		if ierr := e.streams.Ingest(s); ierr != nil {
			errs = append(errs, fmt.Errorf("sample %d: %w", i, ierr))
			continue
		}
		accepted++
	}
	return accepted, errors.Join(errs...)
}

// LiveInfo is the provenance block attached to live-sourced results: it
// records exactly which observed state of the stream the assessment was
// spliced from.
type LiveInfo struct {
	// System is the label of the stream the splice came from ("" when
	// the wildcard stream answered) — multi-stream clients verify
	// routing with it.
	System        string `json:"system,omitempty"`
	Epoch         uint64 `json:"epoch"`
	WindowLo      int    `json:"window_lo_hour"`
	WindowHi      int    `json:"window_hi_hour"`
	HoursObserved int    `json:"hours_observed"`
	Samples       uint64 `json:"samples_accepted"`
}

// liveKey chains the configuration fingerprint with the stream identity
// and the snapshot epoch. The epoch advances on every accepted sample,
// so a pre-ingest cached result is unreachable after new telemetry
// lands; the "live" tag keeps the key disjoint from the pure-simulation
// keyspace even at epoch 0.
func liveKey(base fingerprint.Key, s *telemetry.Stream, epoch uint64) fingerprint.Key {
	h := fingerprint.New()
	h.String("live")
	h.Bytes(base[:])
	s.Fingerprint(h)
	h.Uint64(epoch)
	key := h.Sum()
	h.Release()
	return key
}

// liveAnnualFor assesses cfg against observed demand: the memoized
// simulated year with the live window's averaged energy spliced over it.
// The splice is computed from one atomic stream snapshot and memoized
// under the epoch-chained key.
func (e *Engine) liveAnnualFor(cfg Config, tag subTag) (core.Annual, *LiveInfo, bool, error) {
	if e.streams == nil || e.streams.Len() == 0 {
		return core.Annual{}, nil, false, fmt.Errorf("thirstyflops: live source requested but the engine has no stream (construct with WithLiveStreams)")
	}
	stream := e.streams.Resolve(cfg.System.Name)
	if stream == nil {
		return core.Annual{}, nil, false, fmt.Errorf("%w: %q (live source requested; streams exist for: %s)",
			telemetry.ErrNoStream, cfg.System.Name, strings.Join(e.streams.Systems(), ", "))
	}
	if yr := stream.Year(); yr != 0 && yr != cfg.Year {
		return core.Annual{}, nil, false, fmt.Errorf("thirstyflops: live stream observes year %d, request assesses %d", yr, cfg.Year)
	}
	w := stream.Window()
	info := &LiveInfo{
		System:        stream.System(),
		Epoch:         w.Epoch,
		WindowLo:      w.Lo,
		WindowHi:      w.Hi,
		HoursObserved: w.HoursObserved,
		Samples:       w.Samples,
	}
	compute := func() (core.Annual, error) {
		base, _, err := e.annualFor(cfg, tag)
		if err != nil {
			return core.Annual{}, err
		}
		return core.AnnualFrom(base.System, w.SpliceInto(base.Hourly)), nil
	}
	if e.maxEntries <= 0 {
		a, err := compute()
		return a, info, false, err
	}
	key := liveKey(cfg.Fingerprint(), stream, w.Epoch)
	shard := e.shards[key.Shard(len(e.shards))]
	a, cached, err := shard.Get(key, compute)
	return a, info, cached, err
}

// --- Request/result model ---

// AssessRequest asks for one system assessment. Exactly one of System (a
// bundled Table 1 name) or Custom (a JSON config document) selects the
// machine; Seed and Year override the configuration defaults when set.
type AssessRequest struct {
	System string          `json:"system,omitempty"`
	Custom *ConfigDocument `json:"custom,omitempty"`

	Seed *uint64 `json:"seed,omitempty"`
	Year *int    `json:"year,omitempty"`

	// Source selects the demand signal: "" or "simulated" answers from
	// the modeled year, "live" splices the attached telemetry stream's
	// observed window over it (SourceSimulated/SourceLive).
	Source string `json:"source,omitempty"`

	// Years is the lifetime over which the embodied footprint is
	// amortized; 0 means the 6-year default.
	Years float64 `json:"years,omitempty"`

	// IncludeSeries attaches the full hourly timeline to the result.
	IncludeSeries bool `json:"include_series,omitempty"`
	// Scenarios attaches the Fig. 14 energy-sourcing sweep.
	Scenarios bool `json:"scenarios,omitempty"`
	// Withdrawal attaches Table 3 withdrawal accounting under the default
	// contract.
	Withdrawal bool `json:"withdrawal,omitempty"`
}

// DefaultLifetimeYears amortizes embodied water when AssessRequest.Years
// is unset.
const DefaultLifetimeYears = 6

// resolveConfig materializes the request's configuration.
func (r AssessRequest) resolveConfig() (Config, error) {
	var cfg Config
	switch {
	case r.System != "" && r.Custom != nil:
		return Config{}, fmt.Errorf("thirstyflops: request names both a bundled system and a custom document")
	case r.System != "":
		c, err := core.ConfigFor(r.System)
		if err != nil {
			return Config{}, err
		}
		cfg = c
	case r.Custom != nil:
		c, err := configio.Build(*r.Custom)
		if err != nil {
			return Config{}, err
		}
		cfg = c
	default:
		return Config{}, fmt.Errorf("thirstyflops: request selects no system (set system or custom)")
	}
	if r.Seed != nil {
		cfg.Seed = *r.Seed
	}
	if r.Year != nil {
		cfg.Year = *r.Year
	}
	return cfg, nil
}

// AssessResult is the JSON-serializable outcome of one assessment. It
// is also the payload of the internal/wire binary frame (schema 1),
// which encodes these fields in declaration order: adding, removing, or
// reordering fields here requires a matching wire codec change and a
// schema bump (wire's TestSchemaPinsResultShape pins the field list).
type AssessResult struct {
	System string  `json:"system"`
	Site   string  `json:"site"`
	Region string  `json:"region"`
	Seed   uint64  `json:"seed"`
	Year   int     `json:"year"`
	Years  float64 `json:"years"`

	EnergyKWh    float64 `json:"energy_kwh_per_year"`
	DirectL      float64 `json:"direct_l_per_year"`
	IndirectL    float64 `json:"indirect_l_per_year"`
	OperationalL float64 `json:"operational_l_per_year"`
	DirectShare  float64 `json:"direct_share"`
	CarbonKg     float64 `json:"carbon_kg_per_year"`

	WaterIntensity    float64 `json:"water_intensity_l_per_kwh"`
	AdjustedIntensity float64 `json:"wsi_adjusted_intensity_l_per_kwh"`

	EmbodiedL      float64            `json:"embodied_l"`
	LifetimeTotalL float64            `json:"lifetime_total_l"`
	EmbodiedShares map[string]float64 `json:"embodied_shares"`

	Scenarios  []ScenarioResult `json:"scenarios,omitempty"`
	Withdrawal *Withdrawal      `json:"withdrawal,omitempty"`
	Series     *Series          `json:"series,omitempty"`

	// Source is the demand signal the result was computed against
	// ("simulated" or "live"); Live carries the observed-window
	// provenance when the source is live.
	Source string    `json:"source"`
	Live   *LiveInfo `json:"live,omitempty"`

	// Cached reports whether the hourly simulation was served from the
	// Engine's memo rather than recomputed.
	Cached bool `json:"cached"`
}

// Demand-signal sources for AssessRequest.Source.
const (
	SourceSimulated = "simulated"
	SourceLive      = "live"
)

// Assess evaluates one request. The deterministic simulation is memoized
// per configuration; the derived sections (lifetime, scenarios,
// withdrawal) are recomputed from the cached year.
func (e *Engine) Assess(ctx context.Context, req AssessRequest) (*AssessResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, err := req.resolveConfig()
	if err != nil {
		return nil, err
	}
	return e.assessResolved(ctx, req, cfg, subUnplanned)
}

// assessResolved evaluates a request whose configuration is already
// materialized — the shared tail of Assess and the planner's batch
// execution, which resolves configs up front to fingerprint their
// substrate identities. tag classifies the substrate accounting.
func (e *Engine) assessResolved(ctx context.Context, req AssessRequest, cfg Config, tag subTag) (*AssessResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	years := req.Years
	if years == 0 {
		years = DefaultLifetimeYears
	}
	if years < 0 {
		return nil, fmt.Errorf("thirstyflops: negative lifetime %v", years)
	}

	var (
		a      core.Annual
		cached bool
		live   *LiveInfo
		err    error
	)
	switch req.Source {
	case "", SourceSimulated:
		a, cached, err = e.annualFor(cfg, tag)
	case SourceLive:
		a, live, cached, err = e.liveAnnualFor(cfg, tag)
	default:
		return nil, fmt.Errorf("thirstyflops: unknown source %q (want %q or %q)",
			req.Source, SourceSimulated, SourceLive)
	}
	if err != nil {
		return nil, err
	}
	bd, err := cfg.EmbodiedBreakdown()
	if err != nil {
		return nil, err
	}
	f, err := cfg.LifetimeFromBreakdown(a, bd, years)
	if err != nil {
		return nil, err
	}
	_, _, wi := a.WaterIntensity()

	res := &AssessResult{
		System: a.System,
		Site:   cfg.Site.Name,
		Region: cfg.Region.Name,
		Seed:   cfg.Seed,
		Year:   cfg.Year,
		Years:  years,

		EnergyKWh:    float64(a.Energy),
		DirectL:      float64(a.Direct),
		IndirectL:    float64(a.Indirect),
		OperationalL: float64(a.Operational()),
		DirectShare:  a.DirectShare(),
		CarbonKg:     a.Carbon.Kilograms(),

		WaterIntensity:    float64(wi),
		AdjustedIntensity: float64(a.AdjustedWaterIntensity(cfg.Scarcity)),

		EmbodiedL:      float64(bd.Total()),
		LifetimeTotalL: float64(f.Total()),
		EmbodiedShares: map[string]float64{},

		Source: SourceSimulated,
		Live:   live,
		Cached: cached,
	}
	if req.Source == SourceLive {
		res.Source = SourceLive
	}
	for _, c := range embodied.Components() {
		res.EmbodiedShares[c.String()] = bd.Share(c)
	}

	if req.Scenarios {
		rs, err := cfg.ScenarioSweepFrom(a)
		if err != nil {
			return nil, err
		}
		res.Scenarios = rs
	}
	if req.Withdrawal {
		discharge := Liters(float64(a.Direct) / 3)
		w, err := core.ComputeWithdrawal(a.Operational(), core.DefaultWithdrawalParams(discharge))
		if err != nil {
			return nil, err
		}
		res.Withdrawal = &w
	}
	if req.IncludeSeries {
		s := a.Hourly.Clone()
		res.Series = &s
	}
	return res, nil
}

// AssessMany evaluates a batch of requests across the Engine's worker
// pool, preserving order. Requests sharing a configuration simulate
// once, and the batch is scheduled by the substrate-aware planner so
// requests sharing generator years run consecutively on one worker.
// Failed requests leave nil slots; the joined error reports every
// failure.
func (e *Engine) AssessMany(ctx context.Context, reqs []AssessRequest) ([]*AssessResult, error) {
	return e.AssessBatch(ctx, reqs, nil)
}

// assessSafe is assessResolved with per-unit panic containment: a
// panicking configuration fails that one unit with an error instead of
// killing the worker goroutine (and with it the process) — a batch of
// ten thousand units survives one poisoned config.
func (e *Engine) assessSafe(ctx context.Context, req AssessRequest, cfg Config, tag subTag) (res *AssessResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("thirstyflops: assessment panic: %v", r)
		}
	}()
	return e.assessResolved(ctx, req, cfg, tag)
}

// AssessBatch is AssessMany plus a completion hook: onResult (when
// non-nil) is invoked once per request as it finishes, from whichever
// worker goroutine ran it — the progress feed behind the daemon's async
// job queue. res is nil exactly when err is non-nil.
//
// Execution order is the batch scheduler's (internal/gang): requests
// are fingerprinted by substrate identity (core.Config.SubstrateKeys),
// merged with any other batch arriving within the WithGangWindow
// window, grouped, clustered by shared components, and split into
// contiguous per-worker spans (internal/plan). Results are always
// returned in request order regardless of execution order.
func (e *Engine) AssessBatch(ctx context.Context, reqs []AssessRequest, onResult func(i int, res *AssessResult, err error)) ([]*AssessResult, error) {
	results := make([]*AssessResult, len(reqs))
	errs := make([]error, len(reqs))
	note := func(i int, res *AssessResult, err error) {
		if err != nil {
			errs[i] = fmt.Errorf("request %d: %w", i, err)
		} else {
			results[i] = res
		}
		if onResult != nil {
			onResult(i, res, err)
		}
	}

	// Resolve every request up front: the planner derives substrate
	// identities from materialized configs, and resolution failures
	// (unknown system, invalid document) drop out of the schedule
	// before any simulation runs.
	cfgs := make([]Config, len(reqs))
	items := make([]plan.Item, 0, len(reqs))
	for i, r := range reqs {
		cfg, err := r.resolveConfig()
		if err != nil {
			note(i, nil, err)
			continue
		}
		cfgs[i] = cfg
		items = append(items, planItem(i, cfg))
	}

	// The run callback demuxes completions back into this batch's
	// slots; on cancellation the scheduler still invokes it for every
	// unit, so nil result slots always pair with a reported error.
	e.gangSched.Submit(ctx, items, func(i int, crossJob bool) {
		if err := ctx.Err(); err != nil {
			note(i, nil, err)
			return
		}
		res, err := e.assessSafe(ctx, reqs[i], cfgs[i], batchTag(crossJob))
		note(i, res, err)
	})
	return results, joinUnitErrors(errs)
}

// planItem is the scheduler's view of one batch unit: its batch-local
// index plus the substrate identities the planner groups by.
func planItem(i int, cfg Config) plan.Item {
	ks := cfg.SubstrateKeys()
	return plan.Item{Index: i, Substrate: ks.Combined(), Cluster: ks.Cluster()}
}

// batchTag classifies a scheduled unit's substrate lookups.
func batchTag(crossJob bool) subTag {
	if crossJob {
		return subCrossJob
	}
	return subPlanned
}

// joinUnitErrors joins a batch's per-unit errors, collapsing the
// cancellation flood: a batch canceled mid-flight fails every
// unscheduled unit with the same context error, and joining ten
// thousand copies of "request N: context canceled" produces an O(batch)
// error string nobody can read. Context cancellation/deadline errors
// collapse into one counted summary (still matching errors.Is
// context.Canceled via the wrapped first instance); real per-unit
// failures are kept individually.
func joinUnitErrors(errs []error) error {
	kept := errs[:0:0]
	var (
		canceled int
		first    error
	)
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			canceled++
			if first == nil {
				first = err
			}
		default:
			kept = append(kept, err)
		}
	}
	switch {
	case canceled == 1:
		kept = append(kept, first)
	case canceled > 1:
		kept = append(kept, fmt.Errorf("%d units canceled before completion (first: %w)", canceled, first))
	}
	return errors.Join(kept...)
}

// SweepRequest asks for the Fig. 14 energy-sourcing comparison across
// systems. An empty Systems list sweeps all bundled systems.
type SweepRequest struct {
	Systems []string `json:"systems,omitempty"`
	Seed    *uint64  `json:"seed,omitempty"`
	Year    *int     `json:"year,omitempty"`
}

// SystemSweep is one system's scenario comparison.
type SystemSweep struct {
	System    string           `json:"system"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// SweepResult aggregates a scenario sweep.
type SweepResult struct {
	Systems []SystemSweep `json:"systems"`
}

// Sweep compares the energy-sourcing scenarios for each requested system,
// fanning out across the worker pool and reusing cached assessments.
func (e *Engine) Sweep(ctx context.Context, req SweepRequest) (*SweepResult, error) {
	names := req.Systems
	if len(names) == 0 {
		names = SystemNames()
	}
	reqs := make([]AssessRequest, len(names))
	for i, n := range names {
		reqs[i] = AssessRequest{System: n, Seed: req.Seed, Year: req.Year, Scenarios: true}
	}
	results, err := e.AssessMany(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Systems: make([]SystemSweep, len(results))}
	for i, r := range results {
		out.Systems[i] = SystemSweep{System: r.System, Scenarios: r.Scenarios}
	}
	return out, nil
}

// BatchRequest describes a potentially large assessment sweep — the
// submission shape of the daemon's async job queue (POST /jobs). Exactly
// one of two forms selects the work: an explicit Requests list, or a
// cross-product template (Systems x Seeds x Years) that Expand
// materializes server-side so wide sweeps don't need megabytes of
// request body. Scenarios and Withdrawal apply to every request in
// either form (explicit requests keep their own flags too).
type BatchRequest struct {
	Requests []AssessRequest `json:"requests,omitempty"`

	// Cross-product template, used when Requests is empty. Empty
	// Systems sweeps all bundled systems; empty Seeds/Years keep the
	// configuration defaults.
	Systems []string `json:"systems,omitempty"`
	Seeds   []uint64 `json:"seeds,omitempty"`
	Years   []int    `json:"years,omitempty"`

	Scenarios  bool `json:"scenarios,omitempty"`
	Withdrawal bool `json:"withdrawal,omitempty"`
}

// Normalize returns the batch with duplicate cross-product template
// entries removed — repeated names in Systems, repeated Seeds, repeated
// Years — plus how many units the dedup collapsed. A duplicated entry
// silently multiplies every combination it participates in: the
// duplicates simulate (or at best memo-hit) for nothing and still count
// against the daemon's -job-max-units cap, so the daemon normalizes
// every submission at expansion and reports the collapsed count in the
// job status. First-occurrence order is preserved; a batch with an
// explicit Requests list is returned untouched (request indices are the
// caller's contract, and distinct requests may legitimately repeat a
// configuration with different flags).
func (b BatchRequest) Normalize() (BatchRequest, int) {
	if len(b.Requests) > 0 {
		return b, 0
	}
	before := b.Units()
	b.Systems = dedupKeepOrder(b.Systems)
	b.Seeds = dedupKeepOrder(b.Seeds)
	b.Years = dedupKeepOrder(b.Years)
	return b, before - b.Units()
}

// dedupKeepOrder drops repeated values, keeping first-occurrence order.
// The input slice is returned as-is when it has no duplicates.
func dedupKeepOrder[T comparable](s []T) []T {
	if len(s) < 2 {
		return s
	}
	seen := make(map[T]struct{}, len(s))
	out := s[:0:0]
	for _, v := range s {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	if len(out) == len(s) {
		return s
	}
	return out
}

// Units returns how many assessments the batch will expand to, without
// materializing them — the daemon sizes a submission against its unit
// cap with this before Expand allocates anything. Saturates at MaxInt
// on absurd template products instead of overflowing.
func (b BatchRequest) Units() int {
	if len(b.Requests) > 0 {
		return len(b.Requests)
	}
	n := len(b.Systems)
	if n == 0 {
		n = len(SystemNames())
	}
	seeds := max(len(b.Seeds), 1)
	years := max(len(b.Years), 1)
	if seeds > math.MaxInt/n {
		return math.MaxInt
	}
	if years > math.MaxInt/(n*seeds) {
		return math.MaxInt
	}
	return n * seeds * years
}

// Expand materializes the batch's request list. The cross-product order
// is systems-outer (system, then seed, then year), but callers should
// not rely on it: the planner reschedules execution anyway. Callers
// exposed to untrusted templates must bound Units() first — the
// expansion allocates one request per unit.
func (b BatchRequest) Expand() ([]AssessRequest, error) {
	if len(b.Requests) > 0 {
		if len(b.Systems) != 0 || len(b.Seeds) != 0 || len(b.Years) != 0 {
			return nil, fmt.Errorf("thirstyflops: batch sets both an explicit request list and a cross-product template")
		}
		if !b.Scenarios && !b.Withdrawal {
			return b.Requests, nil
		}
		out := make([]AssessRequest, len(b.Requests))
		copy(out, b.Requests)
		for i := range out {
			out[i].Scenarios = out[i].Scenarios || b.Scenarios
			out[i].Withdrawal = out[i].Withdrawal || b.Withdrawal
		}
		return out, nil
	}
	systems := b.Systems
	if len(systems) == 0 {
		systems = SystemNames()
	}
	seeds := make([]*uint64, 0, max(len(b.Seeds), 1))
	if len(b.Seeds) == 0 {
		seeds = append(seeds, nil)
	}
	for i := range b.Seeds {
		seeds = append(seeds, &b.Seeds[i])
	}
	years := make([]*int, 0, max(len(b.Years), 1))
	if len(b.Years) == 0 {
		years = append(years, nil)
	}
	for i := range b.Years {
		years = append(years, &b.Years[i])
	}
	out := make([]AssessRequest, 0, len(systems)*len(seeds)*len(years))
	for _, sys := range systems {
		for _, seed := range seeds {
			for _, year := range years {
				out = append(out, AssessRequest{
					System:     sys,
					Seed:       seed,
					Year:       year,
					Scenarios:  b.Scenarios,
					Withdrawal: b.Withdrawal,
				})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("thirstyflops: batch expands to no requests")
	}
	return out, nil
}

// Water500Request parameterizes the efficiency ranking; Seed and Year
// override the bundled configuration defaults for every system.
type Water500Request struct {
	Seed *uint64 `json:"seed,omitempty"`
	Year *int    `json:"year,omitempty"`
}

// Water500Result carries the ranking, most water-efficient system first.
type Water500Result struct {
	Entries []Water500Entry `json:"entries"`
}

// Water500 ranks the bundled systems by operational water per unit of
// delivered performance, running the systems as one batch through the
// scheduler AssessBatch uses and reusing cached assessments.
// Water500From returns the entries already sorted by rank.
func (e *Engine) Water500(ctx context.Context, req Water500Request) (*Water500Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfgs, err := core.AllConfigs()
	if err != nil {
		return nil, err
	}
	for i := range cfgs {
		if req.Seed != nil {
			cfgs[i].Seed = *req.Seed
		}
		if req.Year != nil {
			cfgs[i].Year = *req.Year
		}
	}

	annuals := make([]core.Annual, len(cfgs))
	errs := make([]error, len(cfgs))
	items := make([]plan.Item, len(cfgs))
	for i, cfg := range cfgs {
		items[i] = planItem(i, cfg)
	}
	e.gangSched.Submit(ctx, items, func(i int, crossJob bool) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("system %s: %w", cfgs[i].System.Name, err)
			return
		}
		annuals[i], _, errs[i] = e.annualFor(cfgs[i], batchTag(crossJob))
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	entries, err := core.Water500From(cfgs, annuals)
	if err != nil {
		return nil, err
	}
	return &Water500Result{Entries: entries}, nil
}
