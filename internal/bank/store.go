package bank

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store holds every pool of a bank: one FIFO-with-claim-by-id image per
// scope, and beneath it, for the scopes of remote peers, one directory
// per pool holding one file per stored half. The claim discipline is
// claim-before-use: a claim reads the half's file, unlinks it and fsyncs
// the pool directory before the bytes leave the store, so single-use
// holds across SIGKILL — a half that might have reached a wire has no
// name on disk, and a name can be unlinked only once.
//
// A store opened without a directory (a bank's own, see New) and the
// loopback scopes of any store are the same image with the halves in
// it: they were generated inside this process and die with it, so
// appends and claims touch no file and need no recovery. A durable
// scope's image holds ids only; its halves stay on disk until claimed.
//
// The durable scopes of a fresh Store are inert until Recover has run:
// every read/write returns ErrNotRecovered so a server cannot serve from
// an unvalidated directory (readiness in internal/serve is gated on
// exactly this). Recovery is a directory listing: it deletes the
// temporary files of crashed appends and quarantines half files that
// fail their checksum. A pool it cannot list, or a directory in the
// older segment-and-journal format, fails the whole store closed.
type Store struct {
	opts StoreOptions
	dir  string
	peer PeerID

	mu        sync.Mutex
	recovered bool
	failed    error // hard recovery failure: every op returns it
	closed    bool
	scopes    map[uint64]*scopeState
	stats     RecoverStats
}

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// Dir is the store directory, created if absent. One store per
	// process; concurrent processes on one directory are not supported.
	Dir string
	// Observer, when non-nil, receives persist-* events; see
	// NewMetricsObserver and LogClaims.
	Observer Observer
}

// RecoverStats summarizes one recovery scan.
type RecoverStats struct {
	Scopes      int // pool directories accepted
	Records     int // halves available
	Quarantined int // half files or pool dirs quarantined
}

// ErrNotRecovered is returned by store operations before Recover has
// completed successfully.
var ErrNotRecovered = fmt.Errorf("bank: store not recovered")

// FormatError is Recover's refusal of a directory written in the older
// segment-and-journal format (a "journal" claim log, "seg-*.log" pool
// segments). Recovery leaves every file of it as it found it.
type FormatError struct {
	Path string // the first file of the older format found
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("bank: %s belongs to the segment-and-journal store format (ABNN2SG1/ABNN2JN1), "+
		"which this store does not read; its files are left untouched", e.Path)
}

// scopeState is the in-memory image of one pool.
type scopeState struct {
	scope Scope
	hash  uint64
	avail []uint64          // unclaimed ids, FIFO
	recs  map[uint64][]byte // a memory-only scope's halves
	dir   *os.File          // a durable scope's pool directory; nil for memory-only
	seqs  map[uint64]uint64 // a durable scope's unclaimed ids -> file sequence numbers
	next  uint64            // a durable scope's last sequence number used
}

// live reports whether id is unclaimed in sc.
func (sc *scopeState) live(id uint64) bool {
	if sc.dir == nil {
		_, ok := sc.recs[id]
		return ok
	}
	_, ok := sc.seqs[id]
	return ok
}

const (
	peerFile  = "PEER"
	scopeFile = "SCOPE"
	poolsDir  = "pools"
	quarDir   = "quarantine"
	tmpSuffix = ".tmp"
)

// OpenStore creates or attaches to a store directory and loads (creating
// on first open) the party's durable PeerID. The store is unusable until
// Recover runs; see Store.
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("bank: store dir required")
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, poolsDir), filepath.Join(opts.Dir, quarDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("bank: store dir: %w", err)
		}
	}
	s := &Store{opts: opts, dir: opts.Dir, scopes: make(map[uint64]*scopeState)}
	if err := s.loadPeer(); err != nil {
		return nil, err
	}
	return s, nil
}

// newMemStore returns a store with no directory: every scope is
// memory-only.
func newMemStore() *Store { return &Store{scopes: make(map[uint64]*scopeState)} }

// loadPeer reads the durable peer identity, minting a fresh random one on
// first open. The write is atomic so a crash mid-mint cannot leave a torn
// identity.
func (s *Store) loadPeer() error {
	path := filepath.Join(s.dir, peerFile)
	if data, err := readFileMax(path, maxLineBytes); err == nil {
		p, perr := ParsePeerID(strings.TrimSpace(string(data)))
		if perr != nil {
			return fmt.Errorf("bank: store %s: %w", peerFile, perr)
		}
		s.peer = p
		return nil
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bank: store %s: %w", peerFile, err)
	}
	if _, err := rand.Read(s.peer[:]); err != nil {
		return fmt.Errorf("bank: mint peer id: %w", err)
	}
	if err := writeAtomic(path, []byte(s.peer.String()+"\n")); err != nil {
		return fmt.Errorf("bank: store %s: %w", peerFile, err)
	}
	return nil
}

// PeerID returns this store's durable party identity. Available before
// Recover (the handshake needs it while recovery may still be running).
func (s *Store) PeerID() PeerID { return s.peer }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// NewCorrID mints a random correlation id for peer-paired records.
// Random (not sequential) so ids are unguessable without the store —
// see SECURITY.md.
func NewCorrID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("bank: entropy unavailable: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Recover scans the store: it lists every pool directory, deletes the
// temporary files of crashed appends, quarantines half files that fail
// their checksum and pool directories without a valid SCOPE, and builds
// the in-memory image of ids in sequence order. It must complete before
// any other store operation on a durable scope. A pool that cannot be
// listed, or files of the older format, poison the store permanently
// (fail closed).
func (s *Store) Recover() (RecoverStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RecoverStats{}, fmt.Errorf("bank: store closed")
	}
	if s.failed != nil {
		return RecoverStats{}, s.failed
	}
	if s.recovered {
		return s.stats, nil
	}
	var st RecoverStats
	if err := s.recoverPools(&st); err != nil {
		s.failed = err
		return RecoverStats{}, s.failed
	}
	s.recovered = true
	s.stats = st
	s.observe(Event{Kind: "persist-recover", Depth: st.Records})
	return st, nil
}

// recoverPools refuses the older format, then recovers every entry of
// pools/ as a pool directory.
func (s *Store) recoverPools(st *RecoverStats) error {
	root := filepath.Join(s.dir, poolsDir)
	old, _ := filepath.Glob(filepath.Join(root, "*", "seg-*.log"))
	if journal := filepath.Join(s.dir, "journal"); fileExists(journal) {
		old = append([]string{journal}, old...)
	}
	if len(old) > 0 {
		return &FormatError{Path: old[0]}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("bank: store pools: %w", err)
	}
	for _, e := range entries {
		sc, err := s.recoverPool(filepath.Join(root, e.Name()), e.Name(), st)
		if err != nil {
			return err
		}
		if sc == nil {
			continue
		}
		if prev, dup := s.scopes[sc.hash]; dup {
			_ = sc.dir.Close() // read-only handle
			return fmt.Errorf("bank: scope hash collision between %q and %q", prev.scope, sc.scope)
		}
		s.scopes[sc.hash] = sc
		st.Scopes++
		st.Records += len(sc.avail)
	}
	return nil
}

func fileExists(path string) bool {
	_, err := os.Lstat(path)
	return err == nil
}

// recoverPool recovers one pool directory. It returns nil and no error
// after quarantining a directory without a valid SCOPE, and an error —
// the store then fails closed — when the directory cannot be listed: its
// halves could not be accounted for, nor new ones numbered after them.
// A listing is in name order, which for half files is sequence order.
func (s *Store) recoverPool(dir, name string, st *RecoverStats) (*scopeState, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bank: pool %s cannot be listed, store disabled: %w", name, err)
	}
	scopeData, err := readFileMax(filepath.Join(dir, scopeFile), maxLineBytes)
	var scope Scope
	if err == nil {
		scope, err = parseScope(strings.TrimSpace(string(scopeData)))
	}
	if err != nil || scope.dirName() != name || scope.Peer.loopback() {
		s.quarantine(dir)
		st.Quarantined++
		return nil, nil
	}
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("bank: pool %s: %w", name, err)
	}
	sc := &scopeState{scope: scope, hash: scope.hash(), dir: f, seqs: make(map[uint64]uint64)}
	for _, e := range files {
		n := e.Name()
		path := filepath.Join(dir, n)
		if n == scopeFile {
			continue
		}
		if strings.HasSuffix(n, tmpSuffix) {
			// A crashed append, never a half; one that cannot be removed
			// now is removed by the next recovery.
			_ = os.Remove(path)
			continue
		}
		seq, id, ok := parseHalfName(n)
		if ok && !sc.live(id) {
			_, err := readHalf(path, id)
			ok = err == nil
		}
		if !ok {
			s.quarantine(path)
			st.Quarantined++
			continue
		}
		sc.seqs[id] = seq
		sc.avail = append(sc.avail, id)
		sc.next = max(sc.next, seq)
	}
	return sc, nil
}

// quarantine moves a corrupt half file or pool directory aside —
// corrupt material is preserved for forensics, never served, and never
// deleted.
func (s *Store) quarantine(path string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.dir, quarDir, base)
	for i := 1; fileExists(dst); i++ {
		dst = filepath.Join(s.dir, quarDir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		// Last resort: a quarantine that cannot move still must not serve.
		_ = os.Rename(path, path+".quarantined")
	}
	s.observe(Event{Kind: "persist-quarantine"})
}

// getState returns the recovered state for scope, creating its directory
// and in-memory image on first use when create is set.
func (s *Store) getState(scope Scope, create bool) (*scopeState, error) {
	if s.closed {
		return nil, fmt.Errorf("bank: store closed")
	}
	mem := s.dir == "" || scope.Peer.loopback()
	if !mem {
		if s.failed != nil {
			return nil, s.failed
		}
		if !s.recovered {
			return nil, ErrNotRecovered
		}
	}
	h := scope.hash()
	if sc, ok := s.scopes[h]; ok {
		if sc.scope != scope {
			return nil, fmt.Errorf("bank: scope hash collision between %q and %q", sc.scope, scope)
		}
		return sc, nil
	}
	if !create {
		return nil, nil
	}
	if err := scope.valid(); err != nil {
		return nil, err
	}
	sc := &scopeState{scope: scope, hash: h}
	if mem {
		sc.recs = make(map[uint64][]byte)
	} else {
		dir := filepath.Join(s.dir, poolsDir, scope.dirName())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("bank: pool dir: %w", err)
		}
		if err := writeAtomic(filepath.Join(dir, scopeFile), []byte(scope.String()+"\n")); err != nil {
			return nil, fmt.Errorf("bank: pool scope file: %w", err)
		}
		f, err := os.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("bank: pool dir: %w", err)
		}
		sc.dir, sc.seqs = f, make(map[uint64]uint64)
	}
	s.scopes[h] = sc
	return sc, nil
}

// Append adds one correlation half under scope, durably unless the scope
// is memory-only. The id must be fresh for the scope. A durable half is
// written and fsynced under a temporary name, then renamed to its own;
// a crash before the rename leaves only the temporary file, which
// recovery deletes.
func (s *Store) Append(scope Scope, id uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, err := s.getState(scope, true)
	if err != nil {
		return err
	}
	if sc.live(id) {
		return fmt.Errorf("bank: duplicate record id %d in scope", id)
	}
	if sc.dir == nil {
		stored := make([]byte, len(blob))
		copy(stored, blob)
		sc.recs[id] = stored
		sc.avail = append(sc.avail, id)
		return nil
	}
	seq := sc.next + 1
	if err := writeAtomic(filepath.Join(sc.dir.Name(), halfName(seq, id)), halfHeader(id, blob), blob); err != nil {
		return fmt.Errorf("bank: write half: %w", err)
	}
	sc.next = seq
	sc.seqs[id] = seq
	sc.avail = append(sc.avail, id)
	s.observe(Event{Kind: "persist-append", Key: scope.Key, Depth: len(sc.avail)})
	return nil
}

// writeAtomic writes the concatenated parts to path through a fsynced
// temporary file and a rename, so path never holds a partial write.
func writeAtomic(path string, parts ...[]byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = f.Write(p)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: recovery deletes what is left
	}
	return err
}

// maxLineBytes bounds the one-line files, PEER and SCOPE.
const maxLineBytes = 1 << 16

// readFileMax reads the file at path whole, but refuses one of more than
// max bytes from its size, before reading it. An *fs.PathError is the
// file system's error, any other the file's.
func readFileMax(path string, max int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err == nil && fi.Size() > max {
		err = fmt.Errorf("bank: %s holds %d bytes, more than %d", filepath.Base(path), fi.Size(), max)
	}
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	_, err = io.ReadFull(f, data)
	return data, err
}

// readHalf reads the half file at path, bounded by the largest half the
// store writes, and checks that it holds id.
func readHalf(path string, id uint64) ([]byte, error) {
	data, err := readFileMax(path, halfHeaderSize+maxRecordBytes)
	if err != nil {
		return nil, err
	}
	fid, blob, err := parseHalf(data)
	if err == nil && fid != id {
		err = fmt.Errorf("bank: half file holds id %d, named %d", fid, id)
	}
	return blob, err
}

// claimLocked takes the unclaimed half id out of sc and returns its blob.
// A durable half's file is read, checked, unlinked and its directory
// fsynced before the blob is returned. The id leaves the image even when
// a step fails: once the unlink was attempted the half may be gone, so it
// must never be served (the error then surfaces to the caller, who treats
// the draw as a miss). A half whose file fails its check is quarantined.
func (s *Store) claimLocked(sc *scopeState, id uint64) ([]byte, error) {
	if sc.dir == nil {
		b := sc.recs[id]
		delete(sc.recs, id)
		return b, nil
	}
	path := filepath.Join(sc.dir.Name(), halfName(sc.seqs[id], id))
	delete(sc.seqs, id)
	blob, err := readHalf(path, id)
	if errors.As(err, new(*fs.PathError)) {
		return nil, fmt.Errorf("bank: claim read: %w", err)
	}
	if err != nil {
		s.quarantine(path)
		return nil, err
	}
	if err := os.Remove(path); err != nil {
		return nil, fmt.Errorf("bank: claim unlink: %w", err)
	}
	if err := sc.dir.Sync(); err != nil {
		return nil, fmt.Errorf("bank: claim fsync: %w", err)
	}
	s.observe(Event{Kind: "persist-claim-fsync"})
	s.observe(Event{Kind: "persist-claim", Key: sc.scope.Key, ID: id, Pool: sc.scope.dirName()})
	return blob, nil
}

// Draw claims and returns the oldest available record under scope. ok is
// false (with nil error) when the scope is dry or unknown; an error means
// the claim could not be made durable and nothing was handed out.
func (s *Store) Draw(scope Scope) (id uint64, blob []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, err := s.getState(scope, false)
	if err != nil || sc == nil {
		return 0, nil, false, err
	}
	for len(sc.avail) > 0 {
		id = sc.avail[0]
		sc.avail = sc.avail[1:]
		if !sc.live(id) {
			continue // claimed through ClaimByID while queued
		}
		b, err := s.claimLocked(sc, id)
		if err != nil {
			return 0, nil, false, err
		}
		return id, b, true, nil
	}
	return 0, nil, false, nil
}

// ClaimByID claims one specific record (the server side of a peer-paired
// draw, where the client announced the id). Same error contract as Draw.
func (s *Store) ClaimByID(scope Scope, id uint64) (blob []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, err := s.getState(scope, false)
	if err != nil || sc == nil {
		return nil, false, err
	}
	if !sc.live(id) {
		return nil, false, nil
	}
	b, err := s.claimLocked(sc, id)
	// Claims by id mostly arrive in draw order: dropping spent ids off the
	// head keeps avail from growing with every correlation ever stored.
	for len(sc.avail) > 0 && !sc.live(sc.avail[0]) {
		sc.avail = sc.avail[1:]
	}
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// Depth returns the number of available records under scope.
func (s *Store) Depth(scope Scope) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, err := s.getState(scope, false)
	if err != nil || sc == nil {
		return 0
	}
	return len(sc.recs) + len(sc.seqs) // every unclaimed record, and only those
}

// Recovered reports whether Recover has completed successfully.
func (s *Store) Recovered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Sync fsyncs every pool directory — the drain path, so the renames of
// the halves appended since the last claim are on stable storage when a
// graceful shutdown ends. Every claim has already synced its own.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || s.closed {
		return nil
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	var first error
	for _, sc := range s.scopes {
		if sc.dir != nil {
			if err := sc.dir.Sync(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Close syncs and closes every pool directory. The store is unusable
// after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	first := s.syncLocked()
	for _, sc := range s.scopes {
		if sc.dir != nil {
			if err := sc.dir.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (s *Store) observe(ev Event) {
	if s.opts.Observer != nil {
		s.opts.Observer.BankEvent(ev)
	}
}
