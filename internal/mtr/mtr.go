// Package mtr implements mini-transactions: the atomic multi-page units the
// B+tree uses for record changes and structure modification operations
// (SMOs), exactly as the paper describes (§3.2): "During a B-tree SMO, the
// process is protected by a mini-transaction, with the corresponding page
// locked using a two-phase locking policy ... locks ... are only released
// upon the completion of the mini-transaction", and "redo logs are typically
// flushed to storage only after the mini-transaction is committed."
//
// Every page mutation goes through an MTR method, which performs the page
// operation in one page visit (buffer.Visit), then appends a logical redo
// record (with a before-image for undo), stamps the page LSN, and marks the
// frame dirty. Commit appends a mini-transaction commit record, optionally forces the log, and only then
// releases the page latches — on PolarCXLMem, releasing a write latch is
// what flushes the page's cache lines to CXL and clears the persisted lock
// word, so a crash anywhere inside the MTR leaves every touched page
// write-locked and therefore redo-rebuilt by PolarRecv.
package mtr

import (
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/wal"
)

// MTR is one mini-transaction.
type MTR struct {
	clk  *simclock.Clock
	pool buffer.Pool
	log  *wal.Log
	id   uint64

	frames []buffer.Frame // held until Commit, in acquisition order
	held   [4]buffer.Frame
	done   bool
	tag    uint64 // tree meta id stamped into DML records for logical undo
}

// Begin starts a mini-transaction with the given id (callers draw ids from
// their transaction counter; recovery distinguishes committed MTRs by it).
func Begin(clk *simclock.Clock, pool buffer.Pool, log *wal.Log, id uint64) *MTR {
	m := &MTR{clk: clk, pool: pool, log: log, id: id}
	m.frames = m.held[:0]
	return m
}

// ID reports the mini-transaction id.
func (m *MTR) ID() uint64 { return m.id }

// SetTag records the owning tree's meta page id; it is stamped into the Ref
// field of DML records so crash-time undo can route the logical inverse to
// the right tree.
func (m *MTR) SetTag(tag uint64) { m.tag = tag }

// find reports the held frame of page id. An MTR holds a handful of
// frames, so a scan beats a map.
func (m *MTR) find(id uint64) (buffer.Frame, bool) {
	for _, f := range m.frames {
		if f.ID() == id {
			return f, true
		}
	}
	return buffer.Frame{}, false
}

// Adopt registers an externally latched frame so Commit releases it.
func (m *MTR) Adopt(f buffer.Frame) {
	if _, ok := m.find(f.ID()); !ok {
		m.frames = append(m.frames, f)
	}
}

// Clock reports the MTR's virtual clock.
func (m *MTR) Clock() *simclock.Clock { return m.clk }

// Get latches page id in mode and holds it until Commit (2PL). Re-getting a
// page already held returns the held frame (latches are not reentrant).
func (m *MTR) Get(id uint64, mode buffer.Mode) (buffer.Frame, error) {
	if m.done {
		return buffer.Frame{}, fmt.Errorf("mtr %d: get after commit", m.id)
	}
	if f, ok := m.find(id); ok {
		return f, nil
	}
	f, err := m.pool.Get(m.clk, id, mode)
	if err != nil {
		return buffer.Frame{}, err
	}
	m.frames = append(m.frames, f)
	return f, nil
}

// New allocates a fresh write-latched page held until Commit.
func (m *MTR) New() (buffer.Frame, error) {
	if m.done {
		return buffer.Frame{}, fmt.Errorf("mtr %d: new page after commit", m.id)
	}
	f, err := m.pool.NewPage(m.clk)
	if err != nil {
		return buffer.Frame{}, err
	}
	m.frames = append(m.frames, f)
	return f, nil
}

// logAndStamp appends rec, stamps the page LSN, and dirties the frame.
func (m *MTR) logAndStamp(f buffer.Frame, rec wal.Record) error {
	rec.Page = f.ID()
	rec.Txn = m.id
	switch rec.Kind {
	case wal.KInsert, wal.KUpdate, wal.KDelete:
		rec.Ref = m.tag
	}
	lsn := m.log.Append(rec)
	if err := buffer.Visit(f, func(pg page.Page) error { return pg.SetLSN(lsn) }); err != nil {
		return err
	}
	f.MarkDirty()
	return nil
}

// InitPage formats f as a fresh page of the given type/level, logged.
func (m *MTR) InitPage(f buffer.Frame, typ, level uint16) error {
	id := f.ID()
	if err := buffer.Visit(f, func(pg page.Page) error { return pg.Init(id, typ, level) }); err != nil {
		return err
	}
	return m.logAndStamp(f, wal.Record{Kind: wal.KPageInit, PType: typ, Level: level})
}

// Insert adds (key, val) to f, logged.
func (m *MTR) Insert(f buffer.Frame, key int64, val []byte) error {
	if err := buffer.Visit(f, func(pg page.Page) error { return pg.Insert(key, val) }); err != nil {
		return err
	}
	return m.logAndStamp(f, wal.Record{Kind: wal.KInsert, Key: key, Value: val})
}

// Update replaces key's value in f, logged with the before-image.
func (m *MTR) Update(f buffer.Frame, key int64, val []byte) error {
	var old []byte
	if err := buffer.Visit(f, func(pg page.Page) (err error) {
		if old, err = pg.Find(key); err != nil {
			return err
		}
		return pg.Update(key, val)
	}); err != nil {
		return err
	}
	return m.logAndStamp(f, wal.Record{Kind: wal.KUpdate, Key: key, Value: val, Old: old})
}

// Delete removes key from f, logged with the before-image.
func (m *MTR) Delete(f buffer.Frame, key int64) error {
	var old []byte
	if err := buffer.Visit(f, func(pg page.Page) (err error) {
		if old, err = pg.Find(key); err != nil {
			return err
		}
		return pg.Delete(key)
	}); err != nil {
		return err
	}
	return m.logAndStamp(f, wal.Record{Kind: wal.KDelete, Key: key, Old: old})
}

// SetRightSibling updates f's leaf-chain pointer, logged.
func (m *MTR) SetRightSibling(f buffer.Frame, sib uint64) error {
	if err := buffer.Visit(f, func(pg page.Page) error { return pg.SetRightSibling(sib) }); err != nil {
		return err
	}
	return m.logAndStamp(f, wal.Record{Kind: wal.KSetRightSib, Ref: sib})
}

// SetAux updates f's auxiliary word (meta page: root id), logged.
func (m *MTR) SetAux(f buffer.Frame, v uint64) error {
	if err := buffer.Visit(f, func(pg page.Page) error { return pg.SetAux(v) }); err != nil {
		return err
	}
	return m.logAndStamp(f, wal.Record{Kind: wal.KSetAux, Ref: v})
}

// Commit ends the mini-transaction and releases every held latch in
// reverse acquisition order.
//
// durable=true is the SMO path: an MTR-commit marker is appended and the
// log forced, making the unit self-committed — recovery treats its records
// as committed work, never undoing them. durable=false is the DML-statement
// path: nothing is appended; the records' fate is decided by the owning
// transaction's KTxnCommit marker (or its absence, triggering undo).
func (m *MTR) Commit(durable bool) error {
	if m.done {
		return fmt.Errorf("mtr %d: double commit", m.id)
	}
	m.done = true
	if durable {
		m.log.Append(wal.Record{Kind: wal.KMTRCommit, Txn: m.id})
		m.log.Flush(m.clk)
	}
	var firstErr error
	for i := len(m.frames) - 1; i >= 0; i-- {
		if err := m.frames[i].Release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.frames = m.frames[:0]
	return firstErr
}
