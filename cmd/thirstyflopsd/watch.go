package main

// The daemon's push plane: GET /watch serves live re-assessments over
// Server-Sent Events. Each connection is one watch.Hub subscriber for
// one system; the hub is poked by the telemetry registry's OnAdvance
// hook (the statsd flush path) and by /ingest batches, runs one
// epoch-deduplicated assessment through the shared engine cache, and
// fans the encoded result out. The handler here only moves already-
// encoded bytes: both the compact-JSON and the base64 wire form of each
// event are produced once per epoch in the hub's Assess callback, not
// per subscriber.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"thirstyflops"
	"thirstyflops/internal/watch"
	"thirstyflops/internal/wire"
)

// Watch-plane defaults (overridable by flags).
const (
	defaultWatchSubscribers = 256
	defaultWatchHeartbeat   = 15 * time.Second
	// watchWriteWindow is the per-write deadline on an SSE stream: each
	// event write re-arms it (outliving the server's WriteTimeout, which
	// would kill any stream after 5 minutes), and a client that stops
	// reading for a full window is reaped by the failed write.
	watchWriteWindow = 10 * time.Second
)

// watchEvent is the hub's published payload: one live AssessResult
// pre-encoded in both negotiable forms. Encoding happens once per epoch
// on the pump goroutine; every subscriber's SSE writer just picks a
// slice.
type watchEvent struct {
	json []byte // compact JSON AssessResult
	wire []byte // base64(internal/wire frame), SSE-safe single line
}

// initWatch builds the subscription hub over the engine's live streams
// and registers the registry epoch-advance hook that pokes it.
// maxSubs == 0 means the default cap, negative means unlimited;
// heartbeat <= 0 means the default interval.
func (s *server) initWatch(reg *thirstyflops.StreamRegistry, maxSubs int, heartbeat time.Duration) {
	if maxSubs == 0 {
		maxSubs = defaultWatchSubscribers
	}
	if maxSubs < 0 {
		maxSubs = 0 // the hub's "unlimited"
	}
	if heartbeat <= 0 {
		heartbeat = defaultWatchHeartbeat
	}
	s.watchHeartbeat = heartbeat
	s.watch = watch.New(watch.Options[watchEvent]{
		Assess:         s.assessForWatch,
		Epoch:          s.watchEpoch,
		MaxSubscribers: maxSubs,
	})
	// The registry hook runs on the ingesting goroutine — the statsd
	// flush path — so it must stay non-blocking: Poke is a map lookup
	// and a buffered-channel send at most.
	reg.OnAdvance(func(system string, _ uint64) { s.pokeWatch(system) })
}

// pokeWatch wakes the watchers of one system's stream. An advance on
// the wildcard stream (label "") shifts every system's live assessment,
// so it wakes everyone.
func (s *server) pokeWatch(system string) {
	if s.watch == nil {
		return
	}
	if system == "" {
		s.watch.PokeAll()
		return
	}
	s.watch.Poke(system)
}

// watchEpoch is the hub's cheap pre-check: the current epoch of the
// stream the system resolves to.
func (s *server) watchEpoch(system string) (uint64, bool) {
	reg := s.engine.LiveStreams()
	if reg == nil {
		return 0, false
	}
	st := reg.Resolve(system)
	if st == nil {
		return 0, false
	}
	return st.Epoch(), true
}

// assessForWatch is the hub's re-assessment callback: one live
// assessment through the engine's live memo slot (shared with
// /assess?source=live — the hub's fill is the one later GETs hit),
// encoded once in both negotiable forms.
func (s *server) assessForWatch(ctx context.Context, system string) (watchEvent, uint64, error) {
	res, err := s.engine.Assess(ctx, thirstyflops.AssessRequest{
		System: system,
		Source: thirstyflops.SourceLive,
	})
	if err != nil {
		return watchEvent{}, 0, err
	}
	var ev watchEvent
	if ev.json, err = json.Marshal(res); err != nil {
		return watchEvent{}, 0, err
	}
	enc := wire.GetEncoder()
	frame := enc.EncodeResult(res)
	ev.wire = make([]byte, base64.StdEncoding.EncodedLen(len(frame)))
	base64.StdEncoding.Encode(ev.wire, frame)
	wire.PutEncoder(enc)
	var epoch uint64
	if res.Live != nil {
		epoch = res.Live.Epoch
	}
	return ev, epoch, nil
}

// handleWatch serves GET /watch?system=X&source=live: an SSE stream of
// live re-assessments, one `assessment` event per stream-epoch advance.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.watch == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("live push disabled (start with -live-window > 0)"))
		return
	}
	q := r.URL.Query()
	system := q.Get("system")
	if system == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing system query parameter"))
		return
	}
	if src := q.Get("source"); src != "" && src != thirstyflops.SourceLive {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unsupported source %q (only %q assessments are watchable)", src, thirstyflops.SourceLive))
		return
	}
	// Unknown systems answer 404 with the known-system list — including
	// when a wildcard stream would happily resolve the name: the
	// wildcard routes samples, it does not make "HAL9000" assessable.
	if _, err := thirstyflops.SystemConfig(system); err != nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown system %q (known systems: %s)", system, strings.Join(thirstyflops.SystemNames(), ", ")))
		return
	}
	reg := s.engine.LiveStreams()
	if reg.Resolve(system) == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("%w: %q (streams exist for: %s)", thirstyflops.ErrNoLiveStream, system, strings.Join(reg.Systems(), ", ")))
		return
	}

	// Every connection replays the latest published event (when one
	// exists): a fresh subscriber gets current state immediately, and a
	// reconnect presenting Last-Event-ID re-observes the current epoch's
	// result before new advances stream in.
	sub, err := s.watch.Subscribe(system, true)
	if err != nil {
		if errors.Is(err, watch.ErrSubscriberLimit) {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer sub.Close()
	// Catch the topic up on advances that happened while nobody watched.
	s.watch.Poke(system)

	// Content negotiation mirrors /assess: JSON event data by default,
	// base64 wire frames for clients that ask (the Accept header or
	// ?encoding=wire, since EventSource clients cannot set headers).
	useWire := q.Get("encoding") == "wire" || acceptsMedia(r.Header.Get("Accept"), ctWire)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	write := func(p []byte) error {
		_ = rc.SetWriteDeadline(time.Now().Add(watchWriteWindow))
		if _, err := w.Write(p); err != nil {
			return err
		}
		return rc.Flush()
	}
	var buf []byte
	writeEvent := func(ev watch.Event[watchEvent]) error {
		data := ev.Data.json
		if useWire {
			data = ev.Data.wire
		}
		buf = buf[:0]
		buf = fmt.Appendf(buf, "id: %d\nevent: assessment\ndata: ", ev.ID)
		buf = append(buf, data...)
		buf = append(buf, '\n', '\n')
		return write(buf)
	}

	hb := time.NewTicker(s.watchHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		for {
			ev, ok := sub.Next()
			if !ok {
				break
			}
			if writeEvent(ev) != nil {
				return
			}
		}
		if sub.Stopping() {
			// Graceful drain: the queue above has been flushed, so the
			// final event the client sees is the shutdown marker.
			_ = write([]byte("event: shutdown\ndata: {\"reason\":\"server shutting down\"}\n\n"))
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			epoch, _ := s.watchEpoch(system)
			if write(fmt.Appendf(nil, "event: heartbeat\ndata: {\"epoch\":%d}\n\n", epoch)) != nil {
				return
			}
		case <-sub.Ready():
		}
	}
}
