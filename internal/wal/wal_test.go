package wal

import (
	"errors"
	"testing"

	"polarcxlmem/internal/simclock"
)

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l := Attach(NewStore(0, 0))
	a := l.Append(Record{Kind: KInsert, Page: 1})
	b := l.Append(Record{Kind: KUpdate, Page: 1})
	if a != 1 || b != 2 {
		t.Fatalf("lsns = %d, %d", a, b)
	}
	if l.NextLSN() != 3 {
		t.Fatalf("next = %d", l.NextLSN())
	}
}

func TestFlushMakesDurable(t *testing.T) {
	s := NewStore(0, 0)
	l := Attach(s)
	clk := simclock.New()
	l.Append(Record{Kind: KInsert, Page: 1, Value: []byte("abc")})
	l.Append(Record{Kind: KTxnCommit, Txn: 9})
	if s.DurableLSN() != 0 {
		t.Fatal("records durable before flush")
	}
	l.Flush(clk)
	if s.DurableLSN() != 2 {
		t.Fatalf("durable = %d", s.DurableLSN())
	}
	if clk.Now() < DefaultFsyncNanos {
		t.Fatalf("flush charged %d ns", clk.Now())
	}
	var kinds []Kind
	s.Iterate(1, func(r *Record) bool {
		kinds = append(kinds, r.Kind)
		return true
	})
	if len(kinds) != 2 || kinds[0] != KInsert || kinds[1] != KTxnCommit {
		t.Fatalf("iterated %v", kinds)
	}
}

func TestCrashLosesBufferedRecords(t *testing.T) {
	s := NewStore(0, 0)
	l := Attach(s)
	clk := simclock.New()
	l.Append(Record{Kind: KInsert, Page: 1})
	l.Flush(clk)
	l.Append(Record{Kind: KUpdate, Page: 1}) // never flushed
	// Crash: drop l. The store only has LSN 1.
	if s.DurableLSN() != 1 {
		t.Fatalf("durable = %d", s.DurableLSN())
	}
	// Restart continues the LSN sequence after the durable tail.
	l2 := Attach(s)
	if got := l2.Append(Record{Kind: KInsert, Page: 2}); got != 2 {
		t.Fatalf("post-restart lsn = %d (LSN hole or overlap)", got)
	}
}

func TestIterateFromMidpointAndBytes(t *testing.T) {
	s := NewStore(0, 0)
	l := Attach(s)
	clk := simclock.New()
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: KInsert, Page: uint64(i), Value: make([]byte, 10)})
	}
	l.Flush(clk)
	var got []uint64
	s.Iterate(6, func(r *Record) bool {
		got = append(got, r.LSN)
		return true
	})
	if len(got) != 5 || got[0] != 6 {
		t.Fatalf("iterate from 6: %v", got)
	}
	perRec := Record{Kind: KInsert, Value: make([]byte, 10)}.EncodedSize()
	if n, err := s.BytesFrom(6); err != nil || n != 5*perRec {
		t.Fatalf("bytesFrom(6) = %d, %v", n, err)
	}
	// Early stop.
	count := 0
	s.Iterate(1, func(r *Record) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop iterated %d", count)
	}
}

func TestCheckpointAndTruncate(t *testing.T) {
	s := NewStore(0, 0)
	l := Attach(s)
	clk := simclock.New()
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: KInsert, Page: uint64(i)})
	}
	l.Flush(clk)
	s.SetCheckpoint(clk, 5)
	if s.CheckpointLSN() != 5 {
		t.Fatalf("checkpoint = %d", s.CheckpointLSN())
	}
	s.SetCheckpoint(clk, 3) // must not regress
	if s.CheckpointLSN() != 5 {
		t.Fatal("checkpoint regressed")
	}
	s.TruncateBefore(5)
	if tb := s.TruncatedBefore(); tb != 5 {
		t.Fatalf("truncatedBefore = %d, want 5", tb)
	}
	// Reads below the truncation point are loud, not silently shortened.
	if err := s.Iterate(1, func(*Record) bool { return true }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("iterate below truncation: err = %v, want ErrTruncated", err)
	}
	if _, err := s.BytesFrom(4); !errors.Is(err, ErrTruncated) {
		t.Fatalf("bytesFrom below truncation: err = %v, want ErrTruncated", err)
	}
	count := 0
	if err := s.Iterate(5, func(r *Record) bool {
		if r.LSN < 5 {
			t.Fatalf("truncated record %d survived", r.LSN)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("after truncate: %d records", count)
	}
}

func TestBufferedBytes(t *testing.T) {
	l := Attach(NewStore(0, 0))
	if l.BufferedBytes() != 0 {
		t.Fatal("fresh log has buffered bytes")
	}
	r := Record{Kind: KInsert, Value: make([]byte, 100)}
	l.Append(r)
	if l.BufferedBytes() != r.EncodedSize() {
		t.Fatalf("buffered = %d, want %d", l.BufferedBytes(), r.EncodedSize())
	}
	clk := simclock.New()
	l.Flush(clk)
	if l.BufferedBytes() != 0 {
		t.Fatal("flush left buffered bytes")
	}
}

func TestFlushEmptyIsFree(t *testing.T) {
	l := Attach(NewStore(0, 0))
	clk := simclock.New()
	l.Flush(clk)
	if clk.Now() != 0 {
		t.Fatalf("empty flush charged %d ns", clk.Now())
	}
}

func TestKindString(t *testing.T) {
	for k := KInsert; k <= KCheckpoint; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind string")
	}
}
