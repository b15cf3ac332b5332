package mtr

import (
	"fmt"

	"polarcxlmem/internal/page"
	"polarcxlmem/internal/wal"
)

// Apply replays one redo record onto a page if the page LSN shows it has
// not been applied yet (the standard ARIES redo test). It is used by every
// recovery scheme — on a pool page inside a buffer.Visit, or on an off-pool
// page.Image — and by the undo pass (compensation records are ordinary
// records).
func Apply(pg page.Page, rec wal.Record) error {
	if rec.Kind == wal.KPageInit {
		// Init replaces the page wholesale; LSN test against the raw header
		// still applies (a later init wins over an earlier image).
		lsn, err := pg.LSN()
		if err != nil {
			return err
		}
		if lsn >= rec.LSN {
			return nil
		}
		if err := pg.Init(rec.Page, rec.PType, rec.Level); err != nil {
			return err
		}
		return pg.SetLSN(rec.LSN)
	}
	lsn, err := pg.LSN()
	if err != nil {
		return err
	}
	if lsn >= rec.LSN {
		return nil // already reflected
	}
	switch rec.Kind {
	case wal.KInsert:
		if err := pg.Insert(rec.Key, rec.Value); err != nil {
			return fmt.Errorf("redo insert lsn %d page %d: %w", rec.LSN, rec.Page, err)
		}
	case wal.KUpdate:
		if err := pg.Update(rec.Key, rec.Value); err != nil {
			return fmt.Errorf("redo update lsn %d page %d: %w", rec.LSN, rec.Page, err)
		}
	case wal.KDelete:
		if err := pg.Delete(rec.Key); err != nil {
			return fmt.Errorf("redo delete lsn %d page %d: %w", rec.LSN, rec.Page, err)
		}
	case wal.KSetRightSib:
		if err := pg.SetRightSibling(rec.Ref); err != nil {
			return err
		}
	case wal.KSetAux:
		if err := pg.SetAux(rec.Ref); err != nil {
			return err
		}
	case wal.KTxnCommit, wal.KMTRCommit, wal.KCheckpoint:
		return nil // control records touch no page
	default:
		return fmt.Errorf("redo: unknown kind %v", rec.Kind)
	}
	return pg.SetLSN(rec.LSN)
}
