// Package store is the disk persistence tier under the Engine's
// assessment cache and the daemon's job queue: a keyed append-only record
// log with CRC-framed records, an in-memory offset index (values live on
// disk, not in RAM), a bounded asynchronous writer so appends never block
// the caller's hot path, and snapshot compaction that rewrites the live
// set when overwritten records dominate the file.
//
// On-disk layout:
//
//	header  : magic "TFS1" | format uint32 | schema uint64        (16 bytes)
//	record  : payloadLen uint32 | crc32(payload) uint32 | payload (8 + n bytes)
//	payload : op byte (1=put, 2=delete) | keyLen uvarint | key | value
//
// All integers are little-endian. The schema field is the caller's
// content version: opening a file written under a different schema (or a
// different format, or not a store file at all) discards it and starts
// fresh, which is how stale caches are invalidated when the fingerprint
// encoding or the value encoding changes.
//
// Recovery tolerates a torn tail: Open scans records until the first
// frame whose length is implausible, whose payload runs past the end of
// the file, or whose CRC does not match, truncates the file at the last
// valid frame boundary, and serves the surviving prefix. Because records
// are acknowledged (visible to Get, durable after Sync) strictly in
// append order, the recovered entries are always a prefix of what was
// acknowledged before the crash.
//
// Write failures degrade, they don't wedge callers: when an append or
// flush fails mid-batch (ENOSPC, a dying disk, an injected fault), the
// store marks itself wedged and stops appending — appending past a torn
// frame would corrupt the log — then, on the next drain, rehabilitates:
// the file is truncated back to the last offset known fully flushed,
// unpublished operations are re-queued, and appending resumes. While
// the disk keeps failing, queued writes are dropped and counted
// (Stats.Dropped) so memory stays bounded and callers never block on a
// dead device; every failure is counted (Stats.WriteErrors) and
// reported through Options.OnWriteError so the tier above can trip a
// breaker. All filesystem access goes through the internal/faultinject
// seam (Options.FS), which is how the failure modes are replayed
// deterministically in tests.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"thirstyflops/internal/faultinject"
)

// On-disk framing constants.
const (
	magic         = "TFS1"
	formatVersion = 1
	// HeaderSize is the fixed file header: magic, format, schema.
	HeaderSize = 4 + 4 + 8
	// frameHeaderSize prefixes every record: payload length and CRC.
	frameHeaderSize = 4 + 4
	// MaxRecordBytes bounds one record's payload. The recovery scan and
	// the fuzzed decoder refuse larger lengths before allocating, so a
	// corrupt length field can never trigger an unbounded allocation.
	MaxRecordBytes = 64 << 20
)

// Record operations.
const (
	opPut    byte = 1
	opDelete byte = 2
)

// Sentinel errors.
var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrBusy is returned by Put/Delete when the bounded writer queue is
	// full and the store was opened without BlockOnFull: the write is
	// dropped (and counted) rather than blocking the caller.
	ErrBusy = errors.New("store: writer queue full, record dropped")
	// ErrTooLarge rejects records above MaxRecordBytes.
	ErrTooLarge = errors.New("store: record exceeds MaxRecordBytes")
)

// Options configures Open.
type Options struct {
	// Schema is the caller's content version, stamped into the file
	// header. A file carrying any other schema is discarded at Open —
	// bump it whenever the key derivation or the value encoding changes.
	Schema uint64

	// QueueLen bounds the asynchronous writer queue (default 256
	// records). When the queue is full, Put and Delete either drop the
	// record (returning ErrBusy) or, with BlockOnFull, wait for space.
	QueueLen int

	// BlockOnFull makes Put/Delete wait for queue space instead of
	// dropping. Callers that need durability (the job queue) set it;
	// write-through caches (the Engine) leave it off so the assess hot
	// path never blocks on disk.
	BlockOnFull bool

	// FlushEvery is the writer's flush-ticker period (default 200ms):
	// buffered appends are flushed to the OS and their offsets published
	// at least this often even under a never-idle queue, and the
	// compaction condition is re-checked on the same tick.
	FlushEvery time.Duration

	// CompactMinBytes is the minimum dead-byte volume before automatic
	// compaction triggers (default 1 MiB). Compaction runs when dead
	// bytes exceed both this floor and the live volume. Negative
	// disables automatic compaction (explicit Compact still works).
	CompactMinBytes int64

	// FS is the filesystem the store runs on (default the real one).
	// Tests inject a faultinject.Injector here to replay disk failures
	// deterministically.
	FS faultinject.FS

	// OnWriteError, when set, is called once per asynchronous write-path
	// failure (batch append, flush, automatic compaction) from the
	// writer or ticker goroutine, outside the store lock. Synchronous
	// paths (Sync, Compact) return their errors to the caller instead.
	// The callback must not call back into the store.
	OnWriteError func(error)
}

// withDefaults resolves zero options.
func (o Options) withDefaults() Options {
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 200 * time.Millisecond
	}
	if o.CompactMinBytes == 0 {
		o.CompactMinBytes = 1 << 20
	}
	if o.FS == nil {
		o.FS = faultinject.OS{}
	}
	return o
}

// ref locates one key's current value. While the record waits in the
// writer queue (or in the unflushed buffer) the value bytes are pinned in
// val; once flushed, val is released and reads go to the file at off.
type ref struct {
	off   int64  // value offset in the file; valid once val == nil
	n     int64  // value length
	frame int64  // full frame length (header + payload), for accounting
	val   []byte // pending value, nil once published to disk
}

// wop is one queued write operation.
type wop struct {
	op  byte
	key string
	val []byte
	r   *ref // the index entry this put publishes into
}

// pub is one appended-but-unflushed operation, published (puts: offset
// becomes readable; deletes: tombstone becomes dead weight) when the
// buffer reaches the file, or re-queued by rehabilitation when the
// flush that should have published it failed.
type pub struct {
	op    byte
	key   string
	r     *ref // nil for deletes
	off   int64
	n     int64
	frame int64
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Entries int `json:"entries"`

	Gets    uint64 `json:"gets"`
	Hits    uint64 `json:"hits"`
	Puts    uint64 `json:"puts"`
	Dropped uint64 `json:"dropped"` // writes lost to a full queue (ErrBusy)

	Appended    uint64 `json:"appended"`    // records written to the file
	Compactions uint64 `json:"compactions"` // snapshot rewrites

	// Resilience counters: disk failures observed, recoveries performed,
	// and whether the write path is currently wedged (appends suspended
	// until the next rehabilitation attempt succeeds).
	WriteErrors uint64 `json:"write_errors"` // failed appends/flushes/fsyncs/compactions
	ReadErrors  uint64 `json:"read_errors"`  // failed Get/Range disk reads
	Rehabs      uint64 `json:"rehabs"`       // successful truncate-and-requeue recoveries
	Wedged      bool   `json:"wedged"`       // write path suspended by an unrecovered failure
	Pending     int    `json:"pending"`      // queued + appended-but-unpublished operations

	SizeBytes int64 `json:"size_bytes"` // logical file size incl. buffered
	LiveBytes int64 `json:"live_bytes"` // frames still referenced by the index
	DeadBytes int64 `json:"dead_bytes"` // overwritten/deleted frames + tombstones

	// Recovery outcome of the Open that produced this store.
	Recovered      int   `json:"recovered"`       // entries recovered at Open
	TruncatedBytes int64 `json:"truncated_bytes"` // torn tail discarded at Open
	Invalidated    bool  `json:"invalidated"`     // header mismatch discarded the file
}

// Store is a disk-backed key/value record log. All methods are safe for
// concurrent use. Construct with Open; the zero value is not usable.
type Store struct {
	path string
	opts Options

	mu       sync.Mutex
	notEmpty *sync.Cond // writer waits for queued ops
	notFull  *sync.Cond // BlockOnFull producers wait for queue space

	f       faultinject.File
	w       *bufio.Writer
	size    int64 // logical size including bytes still in w
	stable  int64 // offset of the last fully flushed frame boundary
	index   map[string]*ref
	pending []wop // bounded by opts.QueueLen
	unpub   []pub // appended to w, offsets not yet published
	live    int64
	dead    int64
	wedged  bool // write path suspended after a failure; rehab pending
	closing bool

	gets, hits, puts, dropped uint64
	appended, compactions     uint64
	writeErrs, readErrs       uint64
	rehabs                    uint64
	recovered                 int
	truncated                 int64
	invalidated               bool

	writerDone chan struct{}
	tickerDone chan struct{}
	stopTicker chan struct{}
}

// Open opens (or creates) the record log at path, recovering its index.
// A file written under a different schema or format — or a file that is
// not a store log at all — is discarded and restarted empty rather than
// misread.
func Open(path string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{
		path:       path,
		opts:       opts,
		f:          f,
		index:      make(map[string]*ref),
		writerDone: make(chan struct{}),
		tickerDone: make(chan struct{}),
		stopTicker: make(chan struct{}),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	s.w = bufio.NewWriterSize(f, 1<<16)
	go s.writer()
	go s.ticker()
	return s, nil
}

// recover validates the header and scans records, truncating the file at
// the last valid frame (torn-tail tolerance) or discarding it entirely on
// a header mismatch (schema invalidation).
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	fileSize := info.Size()

	restart := func(invalidated bool) error {
		s.invalidated = invalidated
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		if _, err := s.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		var hdr [HeaderSize]byte
		copy(hdr[:4], magic)
		binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], s.opts.Schema)
		if _, err := s.f.Write(hdr[:]); err != nil {
			return err
		}
		s.size = HeaderSize
		s.stable = HeaderSize
		return nil
	}

	if fileSize < HeaderSize {
		// Empty or too short to carry a header: start fresh. A brand-new
		// file is the normal case and is not counted as invalidation.
		return restart(fileSize != 0)
	}
	var hdr [HeaderSize]byte
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if string(hdr[:4]) != magic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != formatVersion ||
		binary.LittleEndian.Uint64(hdr[8:16]) != s.opts.Schema {
		return restart(true)
	}

	if _, err := s.f.Seek(HeaderSize, io.SeekStart); err != nil {
		return err
	}
	valid, err := scan(bufio.NewReaderSize(s.f, 1<<16), HeaderSize, fileSize,
		func(op byte, key string, valOff, valLen, frame int64) {
			old, existed := s.index[key]
			switch op {
			case opPut:
				if existed {
					s.dead += old.frame
					s.live -= old.frame
				}
				s.index[key] = &ref{off: valOff, n: valLen, frame: frame}
				s.live += frame
			case opDelete:
				if existed {
					delete(s.index, key)
					s.dead += old.frame
					s.live -= old.frame
				}
				s.dead += frame // the tombstone itself
			}
		})
	if err != nil {
		return err
	}
	if valid < fileSize {
		if err := s.f.Truncate(valid); err != nil {
			return err
		}
		s.truncated = fileSize - valid
	}
	s.size = valid
	s.stable = valid
	s.recovered = len(s.index)
	return nil
}

// scan iterates frames from r starting at byte offset start, calling
// apply for every valid record, and returns the offset just past the
// last valid frame. It never returns a decoding failure — corruption
// ends the scan at the preceding frame boundary — and never allocates
// more than the smaller of MaxRecordBytes and the remaining file size.
func scan(r *bufio.Reader, start, fileSize int64, apply func(op byte, key string, valOff, valLen, frame int64)) (int64, error) {
	off := start
	var hdr [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or torn frame header
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > MaxRecordBytes || off+frameHeaderSize+n > fileSize {
			return off, nil // implausible length or runs past EOF
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return off, nil
		}
		op, key, valStart, ok := decodePayload(payload)
		if !ok {
			return off, nil
		}
		frame := frameHeaderSize + n
		apply(op, key, off+frameHeaderSize+valStart, n-valStart, frame)
		off += frame
	}
}

// decodePayload splits a CRC-validated payload into its operation, key,
// and the byte offset where the value begins. A payload that passed the
// CRC but does not parse (unknown op, truncated key) reports !ok and the
// scan treats it as corruption.
func decodePayload(payload []byte) (op byte, key string, valStart int64, ok bool) {
	if len(payload) < 2 {
		return 0, "", 0, false
	}
	op = payload[0]
	if op != opPut && op != opDelete {
		return 0, "", 0, false
	}
	keyLen, m := binary.Uvarint(payload[1:])
	if m <= 0 || keyLen > uint64(len(payload)-1-m) {
		return 0, "", 0, false
	}
	keyStart := 1 + m
	key = string(payload[keyStart : keyStart+int(keyLen)])
	return op, key, int64(keyStart + int(keyLen)), true
}

// encodeRecord frames one operation. The returned slice is the complete
// frame: header plus payload.
func encodeRecord(op byte, key string, val []byte) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	kl := binary.PutUvarint(lenBuf[:], uint64(len(key)))
	payloadLen := 1 + kl + len(key) + len(val)
	frame := make([]byte, frameHeaderSize+payloadLen)
	payload := frame[frameHeaderSize:]
	payload[0] = op
	copy(payload[1:], lenBuf[:kl])
	copy(payload[1+kl:], key)
	copy(payload[1+kl+len(key):], val)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame
}

// frameSize returns the encoded frame length of (key, val) without
// building it — producers account live/dead bytes before the writer runs.
func frameSize(key string, valLen int) int64 {
	var lenBuf [binary.MaxVarintLen64]byte
	kl := binary.PutUvarint(lenBuf[:], uint64(len(key)))
	return int64(frameHeaderSize + 1 + kl + len(key) + valLen)
}

// enqueue validates capacity and appends op to the writer queue. Callers
// hold s.mu.
func (s *Store) enqueueLocked(op wop) error {
	if s.opts.BlockOnFull {
		for len(s.pending) >= s.opts.QueueLen && !s.closing {
			s.notFull.Wait()
		}
	}
	if s.closing {
		return ErrClosed
	}
	if len(s.pending) >= s.opts.QueueLen {
		s.dropped++
		return ErrBusy
	}
	s.pending = append(s.pending, op)
	s.notEmpty.Signal()
	return nil
}

// Put records key -> val. The write is asynchronous: the record is
// immediately visible to Get (served from memory until flushed) and
// reaches the file on the next writer batch; Sync forces it durable.
// Without BlockOnFull a full queue drops the record and returns ErrBusy —
// the caller's hot path never blocks on disk.
func (s *Store) Put(key, val []byte) error {
	if int64(len(key))+int64(len(val)) > MaxRecordBytes-16 {
		return ErrTooLarge
	}
	k := string(key)
	v := make([]byte, len(val))
	copy(v, val)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	r := &ref{val: v, frame: frameSize(k, len(v))}
	if err := s.enqueueLocked(wop{op: opPut, key: k, val: v, r: r}); err != nil {
		return err
	}
	if old, ok := s.index[k]; ok && old.val == nil {
		// The overwritten record's frame is dead weight on disk. A still-
		// pending old value settles its own accounting when its append
		// publishes and finds the index pointing elsewhere.
		s.dead += old.frame
		s.live -= old.frame
	}
	s.index[k] = r
	s.puts++
	return nil
}

// Delete removes key, appending a tombstone so the removal survives
// restarts. Deleting an absent key still appends a tombstone (the caller
// may be clearing a key persisted by an earlier process).
func (s *Store) Delete(key []byte) error {
	k := string(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	if err := s.enqueueLocked(wop{op: opDelete, key: k}); err != nil {
		return err
	}
	if old, ok := s.index[k]; ok {
		delete(s.index, k)
		if old.val == nil {
			s.dead += old.frame
			s.live -= old.frame
		}
	}
	return nil
}

// Get returns the value under key, or ok=false when absent. Values still
// in the writer queue are served from memory; flushed values are read
// from the file. The file read happens outside the store lock —
// concurrent lookups don't serialize on each other's disk I/O, and
// appends never wait behind a read — using a snapshot of the handle and
// offsets taken under the lock. A concurrent compaction can invalidate
// that snapshot (it swaps and closes the file), which surfaces as a
// read error and is retried under the lock against the fresh state.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	s.gets++
	r, ok := s.index[string(key)]
	if !ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	s.hits++
	if r.val != nil {
		out := make([]byte, len(r.val))
		copy(out, r.val)
		s.mu.Unlock()
		return out, true, nil
	}
	f, off, n := s.f, r.off, r.n
	s.mu.Unlock()

	out := make([]byte, n)
	if _, err := f.ReadAt(out, off); err == nil {
		return out, true, nil
	}

	// Retry under the lock: the snapshot raced a compaction swap.
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok = s.index[string(key)]
	if !ok {
		return nil, false, nil
	}
	if r.val != nil {
		out := make([]byte, len(r.val))
		copy(out, r.val)
		return out, true, nil
	}
	out = make([]byte, r.n)
	if _, err := s.f.ReadAt(out, r.off); err != nil {
		s.readErrs++
		return nil, false, fmt.Errorf("store: read %s at %d: %w", s.path, r.off, err)
	}
	return out, true, nil
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Range calls fn for every entry. Iteration order is unspecified. fn
// must not call back into the store. A fn error stops the iteration.
func (s *Store) Range(fn func(key, val []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, r := range s.index {
		var v []byte
		if r.val != nil {
			v = append([]byte(nil), r.val...)
		} else {
			v = make([]byte, r.n)
			if _, err := s.f.ReadAt(v, r.off); err != nil {
				s.readErrs++
				return fmt.Errorf("store: read %s at %d: %w", s.path, r.off, err)
			}
		}
		if err := fn([]byte(k), v); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:        len(s.index),
		Gets:           s.gets,
		Hits:           s.hits,
		Puts:           s.puts,
		Dropped:        s.dropped,
		Appended:       s.appended,
		Compactions:    s.compactions,
		WriteErrors:    s.writeErrs,
		ReadErrors:     s.readErrs,
		Rehabs:         s.rehabs,
		Wedged:         s.wedged,
		Pending:        len(s.pending) + len(s.unpub),
		SizeBytes:      s.size,
		LiveBytes:      s.live,
		DeadBytes:      s.dead,
		Recovered:      s.recovered,
		TruncatedBytes: s.truncated,
		Invalidated:    s.invalidated,
	}
}

// appendLocked frames one queued op into the buffered writer and stages
// its publication. Callers hold s.mu.
func (s *Store) appendLocked(op wop) error {
	frame := encodeRecord(op.op, op.key, op.val)
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	s.appended++
	frameLen := int64(len(frame))
	switch op.op {
	case opPut:
		valOff := s.size + frameLen - int64(len(op.val))
		s.unpub = append(s.unpub, pub{op: opPut, key: op.key, r: op.r, off: valOff, n: int64(len(op.val)), frame: frameLen})
	case opDelete:
		// The tombstone's dead-byte weight is accounted at publication,
		// so a flush failure (the frame never really landed) can be
		// rolled back by rehabilitation without unwinding accounting.
		s.unpub = append(s.unpub, pub{op: opDelete, key: op.key, frame: frameLen})
	}
	s.size += frameLen
	return nil
}

// flushLocked pushes buffered frames to the OS and publishes them: put
// refs still current in the index switch from the pinned value to the
// file location (superseded ones settle as dead bytes), tombstones
// settle their dead weight, and the stable watermark advances — on a
// later write failure the file is truncated back to it. Callers hold
// s.mu.
func (s *Store) flushLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	for _, p := range s.unpub {
		if p.op == opDelete {
			s.dead += p.frame
			continue
		}
		if cur, ok := s.index[p.key]; ok && cur == p.r {
			p.r.off, p.r.n, p.r.frame = p.off, p.n, p.frame
			p.r.val = nil
			s.live += p.frame
		} else {
			s.dead += p.frame
		}
	}
	s.unpub = s.unpub[:0]
	s.stable = s.size
	return nil
}

// wedgeLocked records a write-path failure and suspends appends until a
// rehabilitation succeeds. Callers hold s.mu.
func (s *Store) wedgeLocked() {
	s.wedged = true
	s.writeErrs++
}

// rehabLocked recovers a wedged write path: the buffered writer's state
// (possibly mid-frame) is discarded, the file is truncated back to the
// stable watermark — everything beyond it is flush debris that was
// never published — and every unpublished operation whose index entry
// is still current is re-queued ahead of the pending batch, so nothing
// acknowledged is lost when the disk comes back. Callers hold s.mu.
func (s *Store) rehabLocked() error {
	s.w.Reset(s.f) // drops buffered bytes and clears the sticky error
	if err := s.f.Truncate(s.stable); err != nil {
		return err
	}
	if _, err := s.f.Seek(s.stable, io.SeekStart); err != nil {
		return err
	}
	s.w.Reset(s.f)
	requeue := make([]wop, 0, len(s.unpub))
	for _, p := range s.unpub {
		switch p.op {
		case opPut:
			// Only the index-current version re-appends; a superseded
			// one's replacement is itself queued or unpublished and
			// carries the key forward.
			if cur, ok := s.index[p.key]; ok && cur == p.r {
				requeue = append(requeue, wop{op: opPut, key: p.key, val: p.r.val, r: p.r})
			}
		case opDelete:
			requeue = append(requeue, wop{op: opDelete, key: p.key})
		}
	}
	s.unpub = s.unpub[:0]
	s.pending = append(requeue, s.pending...)
	s.size = s.stable
	s.wedged = false
	s.rehabs++
	return nil
}

// discardLocked drops the entire queued backlog after a failed
// rehabilitation — the disk is still refusing writes, and holding the
// backlog would pin memory without bound (or block BlockOnFull
// producers forever). Dropped puts leave the index so reads stay
// truthful about what the log can actually serve; every loss is
// counted. Callers hold s.mu.
func (s *Store) discardLocked() {
	for _, p := range s.unpub {
		if p.op == opPut {
			if cur, ok := s.index[p.key]; ok && cur == p.r {
				delete(s.index, p.key)
			}
		}
		s.dropped++
	}
	s.unpub = s.unpub[:0]
	for _, op := range s.pending {
		if op.op == opPut {
			if cur, ok := s.index[op.key]; ok && cur == op.r {
				delete(s.index, op.key)
			}
		}
		s.dropped++
	}
	s.pending = nil
	s.notFull.Broadcast()
}

// drainLocked appends and flushes every queued op, rehabilitating a
// wedged write path first. On failure the store wedges (or stays
// wedged, dropping the backlog) and the error is returned; with sync
// it also fsyncs — an fsync failure is counted but does not wedge,
// because the flushed frames are structurally intact. Callers hold
// s.mu.
func (s *Store) drainLocked(sync bool) error {
	if s.wedged {
		if err := s.rehabLocked(); err != nil {
			s.writeErrs++
			s.discardLocked()
			return err
		}
	}
	batch := s.pending
	s.pending = nil
	for i, op := range batch {
		if err := s.appendLocked(op); err != nil {
			// Hand the unappended tail back to the queue; the appended
			// prefix sits in unpub and is re-queued by rehabilitation.
			s.pending = append(batch[i:], s.pending...)
			s.wedgeLocked()
			return err
		}
	}
	if err := s.flushLocked(); err != nil {
		s.wedgeLocked()
		return err
	}
	s.notFull.Broadcast()
	if sync {
		if err := s.f.Sync(); err != nil {
			s.writeErrs++
			return err
		}
	}
	return nil
}

// writer is the background goroutine draining the bounded queue in
// batches: wake on work, append the whole batch, flush, publish, check
// compaction, repeat. On close it drains the remainder and fsyncs.
// Failures are counted and reported through Options.OnWriteError
// outside the lock; the next iteration retries via rehabilitation.
func (s *Store) writer() {
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.wedged && !s.closing {
			s.notEmpty.Wait()
		}
		if s.closing && (len(s.pending) == 0 || s.wedged) {
			s.drainLocked(true)
			s.mu.Unlock()
			close(s.writerDone)
			return
		}
		err := s.drainLocked(false)
		var cerr error
		if err == nil {
			cerr = s.maybeCompactLocked()
		}
		if cb := s.opts.OnWriteError; cb != nil && (err != nil || cerr != nil) {
			s.mu.Unlock()
			if err != nil {
				cb(err)
			}
			if cerr != nil {
				cb(cerr)
			}
			s.mu.Lock()
		}
		if err != nil && !s.closing {
			// Don't spin on a dead disk: park until the next enqueue or
			// close wakes us (the flush ticker retries rehabilitation on
			// its own period meanwhile).
			s.notEmpty.Wait()
		}
	}
}

// ticker periodically flushes straggling buffered frames, retries
// rehabilitation of a wedged write path, and re-checks the compaction
// condition, so an idle store still converges.
func (s *Store) ticker() {
	t := time.NewTicker(s.opts.FlushEvery)
	defer t.Stop()
	defer close(s.tickerDone)
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if s.closing {
				s.mu.Unlock()
				continue
			}
			err := s.drainLocked(false)
			var cerr error
			if err == nil {
				cerr = s.maybeCompactLocked()
			}
			cb := s.opts.OnWriteError
			s.mu.Unlock()
			if cb != nil {
				if err != nil {
					cb(err)
				}
				if cerr != nil {
					cb(cerr)
				}
			}
		case <-s.stopTicker:
			return
		}
	}
}

// Sync drains the writer queue and fsyncs: every Put and Delete
// acknowledged before Sync is durable when it returns.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	return s.drainLocked(true)
}

// maybeCompactLocked rewrites the file when dead bytes exceed both the
// configured floor and the live volume. A wedged store never compacts —
// rehabilitation comes first. A failed compaction is counted (the
// original log is intact: the atomic rename never happened) and
// returned for reporting. Callers hold s.mu.
func (s *Store) maybeCompactLocked() error {
	if s.opts.CompactMinBytes < 0 || s.wedged {
		return nil
	}
	if s.dead > s.opts.CompactMinBytes && s.dead > s.live {
		if err := s.compactLocked(); err != nil {
			s.writeErrs++
			return err
		}
	}
	return nil
}

// Compact rewrites the log to contain exactly the live record set: a
// fresh file is built next to the log, fsynced, and atomically renamed
// over it. Entries still pinned in the writer queue are left pending —
// their queued appends land in the compacted file on the next batch.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked performs the snapshot rewrite. Callers hold s.mu.
func (s *Store) compactLocked() error {
	// Drain the writer queue and settle buffered frames first, so every
	// ref is published with a readable offset in the old file. Skipping
	// a pending overwrite instead would drop the key's previous durable
	// record from the compacted file — a crash before the pending append
	// flushed would then lose data that had been acknowledged durable,
	// breaking the recovered-prefix invariant.
	if err := s.drainLocked(false); err != nil {
		return err
	}
	tmpPath := s.path + ".compact"
	tmp, err := s.opts.FS.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer s.opts.FS.Remove(tmpPath) // no-op after a successful rename

	var hdr [HeaderSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], s.opts.Schema)
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if _, err := bw.Write(hdr[:]); err != nil {
		tmp.Close()
		return err
	}

	// Write the live set, remembering each ref's new location. The drain
	// above published every ref, but a still-pending value (val != nil)
	// is handled from memory anyway rather than assumed away.
	type moved struct {
		r     *ref
		off   int64
		n     int64
		frame int64
	}
	size := int64(HeaderSize)
	var live int64
	moves := make([]moved, 0, len(s.index))
	buf := make([]byte, 0, 4096)
	for k, r := range s.index {
		val := r.val
		if val == nil {
			if int64(cap(buf)) < r.n {
				buf = make([]byte, r.n)
			}
			buf = buf[:r.n]
			if _, err := s.f.ReadAt(buf, r.off); err != nil {
				tmp.Close()
				return err
			}
			val = buf
		}
		frame := encodeRecord(opPut, k, val)
		if _, err := bw.Write(frame); err != nil {
			tmp.Close()
			return err
		}
		frameLen := int64(len(frame))
		vn := int64(len(val))
		moves = append(moves, moved{r: r, off: size + frameLen - vn, n: vn, frame: frameLen})
		size += frameLen
		live += frameLen
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := s.opts.FS.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return err
	}
	// The rename made tmp the log; swap handles and retarget the refs.
	// The snapshot is fully flushed and fsynced, so the stable watermark
	// is its whole size; a seek failure wedges (position unknown) and
	// rehabilitation re-seeks.
	old := s.f
	s.f = tmp
	old.Close()
	for _, m := range moves {
		m.r.off, m.r.n, m.r.frame = m.off, m.n, m.frame
		m.r.val = nil
	}
	s.size = size
	s.stable = size
	s.live = live
	s.dead = 0
	s.compactions++
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		s.wedgeLocked()
		return err
	}
	s.w.Reset(s.f)
	return nil
}

// Close drains the writer queue, fsyncs, and releases the file. Further
// operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closing = true
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
	s.mu.Unlock()

	close(s.stopTicker)
	<-s.tickerDone
	<-s.writerDone
	return s.f.Close()
}
