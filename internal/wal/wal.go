// Package wal implements the ARIES-style redo log.
//
// The split mirrors the paper's crash model (§3.2): Log is the host-side
// handle with an in-DRAM record buffer — lost on a crash, which is why
// PolarRecv must treat pages whose LSN exceeds the durable LSN as "too new"
// and rebuild them — while Store is the durable tail on shared storage,
// which survives. Transactions append redo records as they modify pages;
// commit (and mini-transaction commit, for B-tree SMOs) forces a group
// flush of the buffer to the Store.
package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"polarcxlmem/internal/simclock"
)

// ErrTruncated reports a read below the log's truncation point: the records
// requested were discarded by TruncateBefore and can never be served again.
// Recovery paths that trip this have a checkpoint/truncation bookkeeping bug
// — the invariant is that truncation never passes the previous durable
// checkpoint, so a scan from any recorded checkpoint stays readable.
var ErrTruncated = errors.New("wal: records truncated below requested LSN")

// Kind enumerates redo record types.
type Kind uint8

// Redo record kinds. Page-level records are logical redo: applying one
// replays the page operation. Control records mark transaction boundaries
// and checkpoints.
const (
	KInsert Kind = iota + 1
	KUpdate
	KDelete
	KPageInit
	KSetRightSib
	KSetAux
	KTxnCommit
	KMTRCommit
	KCheckpoint
)

// String implements fmt.Stringer for log diagnostics.
func (k Kind) String() string {
	switch k {
	case KInsert:
		return "insert"
	case KUpdate:
		return "update"
	case KDelete:
		return "delete"
	case KPageInit:
		return "page-init"
	case KSetRightSib:
		return "set-right-sib"
	case KSetAux:
		return "set-aux"
	case KTxnCommit:
		return "txn-commit"
	case KMTRCommit:
		return "mtr-commit"
	case KCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one redo log record.
type Record struct {
	LSN   uint64
	Page  uint64 // target page id (0 for control records)
	Txn   uint64 // owning transaction / mini-transaction id
	Kind  Kind
	Key   int64
	Level uint16 // KPageInit: btree level
	PType uint16 // KPageInit: page type
	Ref   uint64 // KSetRightSib/KSetAux: the stored id/word
	Value []byte // KInsert/KUpdate: record payload
	Old   []byte // KUpdate/KDelete: before-image, for transaction undo
}

// EncodedSize reports the on-disk size used for bandwidth accounting.
func (r Record) EncodedSize() int64 {
	return 8 + 8 + 8 + 1 + 8 + 2 + 2 + 8 + 4 + int64(len(r.Value)) + 4 + int64(len(r.Old))
}

// Store is the durable log tail. It lives on shared storage and survives
// host crashes.
type Store struct {
	bw    *simclock.Resource
	fsync int64

	mu      sync.Mutex
	records []Record // ascending LSN
	// ends[i] is the running encoded size of the log through records[i],
	// counted from the first record ever persisted; BytesFrom subtracts two
	// entries instead of summing the tail.
	ends          []int64
	durableLSN    uint64
	checkpointLSN uint64

	// truncatedBefore is the lowest LSN still readable: every record below
	// it was discarded by TruncateBefore. LSNs start at 1, so 1 means
	// "nothing ever truncated".
	truncatedBefore uint64

	// units is a monotonic queue of the readable records whose unit id no
	// later record's reaches: the front holds the largest id (MaxUnit).
	units []unitMark

	// open maps durable units (transactions and mini-transactions) that have
	// records on the durable tail but no durable commit marker yet to the
	// first LSN they logged. The fuzzy checkpointer's candidate LSN must stay
	// below every open unit's first record so undo information is never
	// truncated away.
	open map[uint64]uint64
}

// unitMark is one entry of Store.units.
type unitMark struct{ lsn, unit uint64 }

// compactMin is the least cut TruncateBefore copies the tail away from.
const compactMin = 1024

// Default log-device parameters: a PolarFS-class replicated log store.
const (
	DefaultLogBandwidth = 2e9    // bytes per second
	DefaultFsyncNanos   = 25_000 // per group-commit flush
)

// NewStore returns an empty durable log store. Zero arguments select the
// defaults.
func NewStore(bandwidth float64, fsyncNanos int64) *Store {
	if bandwidth == 0 {
		bandwidth = DefaultLogBandwidth
	}
	if fsyncNanos == 0 {
		fsyncNanos = DefaultFsyncNanos
	}
	return &Store{
		bw:              simclock.NewResource("wal-dev", bandwidth),
		fsync:           fsyncNanos,
		truncatedBefore: 1,
		open:            make(map[uint64]uint64),
	}
}

// persist appends recs (ascending LSN) durably, charging clk. The fsync
// occupies the log DEVICE, not just the caller: concurrent flushes serialize
// on the device queue in virtual time, which is the per-commit IOPS wall
// that group commit exists to amortize. A lone caller pays exactly the old
// fsync-then-bytes cost.
func (s *Store) persist(clk *simclock.Clock, recs []Record) {
	if len(recs) == 0 {
		return
	}
	var bytes int64
	for _, r := range recs {
		bytes += r.EncodedSize()
	}
	s.bw.Occupy(clk, s.fsync)
	s.bw.Use(clk, bytes)
	s.mu.Lock()
	s.records = append(s.records, recs...)
	end := int64(0)
	if n := len(s.ends); n > 0 {
		end = s.ends[n-1]
	}
	for _, r := range recs {
		end += r.EncodedSize()
		s.ends = append(s.ends, end)
	}
	if last := recs[len(recs)-1].LSN; last > s.durableLSN {
		s.durableLSN = last
	}
	// Open-unit bookkeeping: a unit opens at its first durable record and
	// closes at its durable commit marker. Control records with no unit
	// (checkpoints) are ignored, here and by units.
	for _, r := range recs {
		if r.Txn == 0 {
			continue
		}
		if r.LSN >= s.truncatedBefore { // units: pop what r's id reaches, push r
			n := len(s.units)
			for n > 0 && s.units[n-1].unit <= r.Txn {
				n--
			}
			s.units = append(s.units[:n], unitMark{r.LSN, r.Txn})
		}
		switch r.Kind {
		case KTxnCommit, KMTRCommit:
			delete(s.open, r.Txn)
		default:
			if _, ok := s.open[r.Txn]; !ok {
				s.open[r.Txn] = r.LSN
			}
		}
	}
	s.mu.Unlock()
}

// DurableLSN reports the highest LSN persisted. Records above it were in a
// DRAM buffer and are gone after a crash.
func (s *Store) DurableLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableLSN
}

// CheckpointLSN reports the last recorded checkpoint LSN; recovery scans
// from here.
func (s *Store) CheckpointLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLSN
}

// SetCheckpoint durably records a checkpoint at lsn.
func (s *Store) SetCheckpoint(clk *simclock.Clock, lsn uint64) {
	clk.Advance(s.fsync)
	s.mu.Lock()
	if lsn > s.checkpointLSN {
		s.checkpointLSN = lsn
	}
	s.mu.Unlock()
}

// MaxUnit reports the largest unit (transaction or mini-transaction) id
// among the records still readable, or 0 when none carries one.
func (s *Store) MaxUnit() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.units) == 0 {
		return 0
	}
	return s.units[0].unit
}

// OldestOpenLSN reports the first LSN of the oldest durable unit that has no
// durable commit marker yet, and whether any such unit exists. The fuzzy
// checkpointer caps its candidate LSN at (oldest open − 1): truncating at or
// above an open unit's first record would destroy the before-images undo
// needs if the host dies before the unit commits.
func (s *Store) OldestOpenLSN() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var min uint64
	for _, first := range s.open {
		if min == 0 || first < min {
			min = first
		}
	}
	return min, min != 0
}

// Iterate calls fn for every durable record with LSN >= from, in LSN order,
// stopping early if fn returns false. fn gets the stored record itself, not
// a copy, and must not modify it. The caller charges scan I/O costs.
// A from below the truncation point returns ErrTruncated (wrapped) without
// calling fn: the requested prefix no longer exists, and serving a silently
// shortened scan would corrupt recovery.
func (s *Store) Iterate(from uint64, fn func(*Record) bool) error {
	if from < 1 {
		from = 1
	}
	s.mu.Lock()
	recs := s.records
	trunc := s.truncatedBefore
	s.mu.Unlock()
	if from < trunc {
		return truncated(from, trunc)
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= from })
	for ; i < len(recs); i++ {
		if !fn(&recs[i]) {
			return nil
		}
	}
	return nil
}

// truncated is the ErrTruncated error for a read from below trunc.
func truncated(from, trunc uint64) error {
	return fmt.Errorf("%w: LSN %d < truncation point %d", ErrTruncated, from, trunc)
}

// BytesFrom reports the encoded size of all durable records with LSN >= from
// (recovery charges this as sequential log-read I/O). Like Iterate, a from
// below the truncation point returns ErrTruncated.
func (s *Store) BytesFrom(from uint64) (int64, error) {
	if from < 1 {
		from = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.truncatedBefore {
		return 0, truncated(from, s.truncatedBefore)
	}
	n := len(s.records)
	i := sort.Search(n, func(i int) bool { return s.records[i].LSN >= from })
	if i == n {
		return 0, nil
	}
	return s.ends[n-1] - s.ends[i] + s.records[i].EncodedSize(), nil
}

// TruncateBefore discards records below lsn (checkpoint garbage collection)
// and advances the truncation point; reads below it fail with ErrTruncated
// from then on. The point is monotone — re-truncating lower is a no-op.
//
// The kept tail is resliced, and persist appends into the same array until
// it regrows it, freeing the prefix; a cut of compactMin records or more
// and a quarter of the tail (a checkpoint dropping a bulk load, which a
// read-mostly run may never regrow past) copies the tail to a new array at
// once. Both are safe for concurrent scans: Iterate reads a snapshot
// slice, and persist only writes past the end of every slice handed out.
func (s *Store) TruncateBefore(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.truncatedBefore {
		s.truncatedBefore = lsn
	}
	i := sort.Search(len(s.records), func(i int) bool { return s.records[i].LSN >= lsn })
	u := sort.Search(len(s.units), func(u int) bool { return s.units[u].lsn >= lsn })
	s.records, s.ends, s.units = s.records[i:], s.ends[i:], s.units[u:]
	if i >= compactMin && 4*i >= len(s.records) {
		// Not slices.Clone: an empty clone keeps pointing into the old array.
		s.records = append([]Record(nil), s.records...)
		s.ends = append([]int64(nil), s.ends...)
		s.units = append([]unitMark(nil), s.units...)
	}
}

// TruncatedBefore reports the lowest LSN still readable (1 when nothing was
// ever truncated). Scans that must cover "everything the log still has"
// start here, not at 1.
func (s *Store) TruncatedBefore() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.truncatedBefore
}

// Device exposes the log bandwidth resource for stats.
func (s *Store) Device() *simclock.Resource { return s.bw }

// Log is the host-side redo log handle: an in-DRAM buffer of records not
// yet flushed. Dropping the Log without Flush models losing the redo buffer
// in a crash.
//
// Concurrency contract: Append and Flush are safe for concurrent committers.
// Append assigns LSNs under mu; Flush holds flushMu across the whole
// snapshot-and-persist step, so two concurrent flushes cannot hand the store
// overlapping or out-of-order record batches — each flush persists a strict
// LSN-contiguous extension of the previous one, keeping Store.records sorted
// (Iterate binary-searches it) and DurableLSN truthful. Records appended
// while a flush is in flight simply ride the next flush.
type Log struct {
	store *Store

	mu      sync.Mutex // guards buf and nextLSN (the Append path)
	buf     []Record
	nextLSN uint64

	// flushMu serializes Flush end to end. Without it, goroutine A could
	// snapshot LSNs 1..3, goroutine B snapshot 4..5, and B's persist could
	// land first — leaving the durable tail unsorted and DurableLSN claiming
	// 1..3 are durable while they are still in flight.
	flushMu sync.Mutex
}

// Attach opens a Log over store, continuing the LSN sequence after the
// durable tail (the restart path).
func Attach(store *Store) *Log {
	return &Log{store: store, nextLSN: store.DurableLSN() + 1}
}

// Append buffers rec, assigns it the next LSN, and returns that LSN. No I/O
// happens until Flush.
func (l *Log) Append(rec Record) uint64 {
	l.mu.Lock()
	rec.LSN = l.nextLSN
	l.nextLSN++
	l.buf = append(l.buf, rec)
	l.mu.Unlock()
	return rec.LSN
}

// NextLSN reports the LSN the next Append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// BufferedBytes reports the encoded size of unflushed records.
func (l *Log) BufferedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, r := range l.buf {
		n += r.EncodedSize()
	}
	return n
}

// Flush group-commits every buffered record to the durable store, charging
// clk for the write. Safe for concurrent callers; see the Log contract.
func (l *Log) Flush(clk *simclock.Clock) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	recs := l.buf
	l.buf = nil
	l.mu.Unlock()
	l.store.persist(clk, recs)
}

// TruncateBefore discards durable records below lsn — the host-side face of
// checkpoint garbage collection. Only the durable tail is affected; buffered
// (unflushed) records all carry LSNs above the durable tail and ride along
// untouched. Safe to call concurrently with Append and Flush: the store
// locks its record slice, and the truncation point only ever rises.
func (l *Log) TruncateBefore(lsn uint64) {
	l.store.TruncateBefore(lsn)
}

// Store exposes the durable store (recovery needs it after the Log died).
func (l *Log) Store() *Store { return l.store }
