package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/clock"
)

// ErrNoSnapshot reports a state directory with no usable snapshot — the
// normal first-boot condition, distinct from corruption.
var ErrNoSnapshot = errors.New("persist: no snapshot available")

// Store manages the on-disk layout of a state directory: epoch-numbered
// snapshot/journal pairs
//
//	snap-00000007.full      full snapshot, single trailing checksum
//	snap-00000007.journal   deltas since that snapshot, per-record CRC
//
// Every write lands in a temp file first, is fsynced, and is renamed
// into place (with a directory fsync) so a crash at any instant leaves
// either the old file or the new one — never a torn one. The journal is
// the exception by design: it is append-only, and its per-record
// checksums confine a torn append to the tail.
//
// Store is not safe for concurrent use; the Checkpointer serializes
// access to it.
type Store struct {
	dir    string
	retain int

	epoch      uint64   // current epoch (0 until first rotation)
	journal    *os.File // open journal for the current epoch
	journalLen int64
}

// OpenStore opens (creating if needed) a state directory. retain is the
// number of snapshot epochs to keep; values < 2 are raised to 2 so one
// fully valid fallback pair always survives a crash mid-rotation.
func OpenStore(dir string, retain int) (*Store, error) {
	if retain < 2 {
		retain = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create state dir: %w", err)
	}
	s := &Store{dir: dir, retain: retain}
	if epochs, err := s.epochs(); err == nil && len(epochs) > 0 {
		s.epoch = epochs[len(epochs)-1]
	}
	return s, nil
}

// Epoch returns the newest epoch present on disk (0 if none).
func (s *Store) Epoch() uint64 { return s.epoch }

// epochs lists the snapshot epochs present on disk, ascending.
func (s *Store) epochs() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".full") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".full"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (s *Store) fullPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%08d.full", epoch))
}

func (s *Store) journalPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%08d.journal", epoch))
}

// WriteSnapshot persists snap as a new epoch (assigned by the store and
// written back into snap.Epoch), atomically: temp file, fsync, rename,
// directory fsync. It then opens a fresh journal for the new epoch and
// prunes epochs beyond the retention count. The previous epoch's pair is
// left intact until pruned, so a crash anywhere in this sequence
// recovers from one epoch or the other. Returns the encoded size.
func (s *Store) WriteSnapshot(snap *Snapshot) (int, error) {
	epoch := s.epoch + 1
	snap.Epoch = epoch
	data := EncodeSnapshot(snap)

	if err := atomicWrite(s.fullPath(epoch), data); err != nil {
		return 0, err
	}
	if err := s.openJournal(epoch, snap.TakenAt); err != nil {
		return 0, err
	}
	s.epoch = epoch
	s.prune()
	return len(data), nil
}

// openJournal closes the current journal (if any) and starts the journal
// file for epoch. The header is written through the same atomic path as
// snapshots; appends then go straight to the renamed file.
func (s *Store) openJournal(epoch uint64, at clock.Time) error {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	path := s.journalPath(epoch)
	if err := atomicWrite(path, EncodeJournalHeader(epoch, at)); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: reopen journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: stat journal: %w", err)
	}
	s.journal, s.journalLen = f, st.Size()
	return nil
}

// AppendDeltas appends the deltas to the current epoch's journal and
// fsyncs once for the batch. It requires a prior WriteSnapshot (the
// journal is meaningless without the snapshot it amends).
func (s *Store) AppendDeltas(deltas []Delta) error {
	if len(deltas) == 0 {
		return nil
	}
	if s.journal == nil {
		return errors.New("persist: no open journal (write a snapshot first)")
	}
	var buf []byte
	for _, d := range deltas {
		buf = AppendDeltaRecord(buf, d)
	}
	n, err := s.journal.Write(buf)
	s.journalLen += int64(n)
	if err != nil {
		return fmt.Errorf("persist: append journal: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("persist: sync journal: %w", err)
	}
	return nil
}

// JournalLen returns the current journal's size in bytes (0 if none) —
// the rotation trigger input.
func (s *Store) JournalLen() int64 { return s.journalLen }

// Load reads the newest valid snapshot/journal pair, newest epoch first.
// A corrupt or unreadable snapshot falls back to the next older epoch; a
// corrupt journal degrades to the snapshot alone (its valid prefix, if
// any, still applies). Returns ErrNoSnapshot when nothing usable exists.
func (s *Store) Load() (*Snapshot, []Delta, error) {
	epochs, err := s.epochs()
	if err != nil {
		return nil, nil, fmt.Errorf("persist: scan state dir: %w", err)
	}
	var lastErr error
	for i := len(epochs) - 1; i >= 0; i-- {
		epoch := epochs[i]
		data, err := os.ReadFile(s.fullPath(epoch))
		if err != nil {
			lastErr = err
			continue
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			lastErr = fmt.Errorf("epoch %d: %w", epoch, err)
			continue
		}
		var deltas []Delta
		if jdata, err := os.ReadFile(s.journalPath(epoch)); err == nil {
			if jepoch, ds, _, err := DecodeJournal(jdata); err == nil && jepoch == epoch {
				deltas = ds
			}
		}
		return snap, deltas, nil
	}
	if lastErr != nil {
		return nil, nil, fmt.Errorf("%w (last error: %v)", ErrNoSnapshot, lastErr)
	}
	return nil, nil, ErrNoSnapshot
}

// prune removes epochs beyond the retention count, oldest first. Errors
// are ignored: stale files cost disk, not correctness.
func (s *Store) prune() {
	epochs, err := s.epochs()
	if err != nil || len(epochs) <= s.retain {
		return
	}
	for _, e := range epochs[:len(epochs)-s.retain] {
		os.Remove(s.fullPath(e))
		os.Remove(s.journalPath(e))
	}
}

// Close releases the open journal handle (final flushes happen through
// the Checkpointer before this).
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// atomicWrite writes data to path via a same-directory temp file, fsync,
// rename, and directory fsync.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return fmt.Errorf("persist: create temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("persist: write temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
