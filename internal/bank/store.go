package bank

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store holds every pool of a bank: one FIFO-with-claim-by-id image per
// scope, and beneath it, for the scopes of remote peers, per-scope
// append-only segment files of checksummed correlation records plus one
// shared claim journal. The claim discipline is claim-before-use — a
// record's journal entry is written and fsynced before the correlation
// bytes are ever handed to a session — so single-use holds across
// SIGKILL: a correlation that might have reached a wire is tombstoned on
// disk before it does.
//
// A store opened without a directory (a bank's own, see New) and the
// loopback scopes of any store are the same image with nothing beneath
// it: their halves were generated inside this process and die with it,
// so appends and claims skip the files and need no recovery.
//
// The durable scopes of a fresh Store are inert until Recover has run:
// every read/write returns ErrNotRecovered so a server cannot serve from
// an unvalidated directory (readiness in internal/serve is gated on
// exactly this). Recovery truncates torn tails (the partial write of a
// crashed append) and quarantines structurally corrupt segments;
// corruption in the journal beyond a torn tail fails the whole store
// closed — replaying a claim is the one error this design never risks.
type Store struct {
	opts StoreOptions
	dir  string
	peer PeerID

	mu        sync.Mutex
	recovered bool
	failed    error // hard recovery failure: every op returns it
	closed    bool
	journal   *os.File
	scopes    map[uint64]*scopeState
	stats     RecoverStats
}

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// Dir is the store directory, created if absent. One store per
	// process; concurrent processes on one directory are not supported.
	Dir string
	// Observer, when non-nil, receives persist-* events; see
	// NewPersistObserver.
	Observer Observer

	// segmentMaxBytes, a test hook, rotates a scope's active segment past
	// this size; zero means 64 MiB.
	segmentMaxBytes int64
}

func (o StoreOptions) segmentMax() int64 {
	if o.segmentMaxBytes <= 0 {
		return 64 << 20
	}
	return o.segmentMaxBytes
}

// RecoverStats summarizes one recovery scan.
type RecoverStats struct {
	Scopes      int // pool directories accepted
	Segments    int // segment files accepted
	Records     int // records available after claim subtraction
	Claimed     int // journal entries applied
	TornTails   int // segment/journal tails truncated
	Quarantined int // segment files or pool dirs quarantined
	Pruned      int // fully-claimed segment files deleted
}

// ErrNotRecovered is returned by store operations before Recover has
// completed successfully.
var ErrNotRecovered = fmt.Errorf("bank: store not recovered")

// scopeState is the in-memory image of one pool.
type scopeState struct {
	scope    Scope
	hash     uint64
	dir      string   // "" for a memory-only scope
	seg      *os.File // active segment, nil until first Append
	segSize  int64
	segIndex int      // highest segment index seen/created
	avail    []uint64 // unclaimed record ids, file order
	recs     map[uint64][]byte
	claimed  map[uint64]bool
	segs     []*segmentInfo // every live segment file and the ids it holds
	active   *segmentInfo   // the file behind seg; never pruned
}

// segmentInfo tracks which record ids one segment file holds, so the
// store can delete the file once every one of them has been claimed —
// the pruning that stops the bank directory from growing monotonically.
// ids lists every record parsed from or appended to the file, duplicate
// appends included, which makes pruning conservative: a file is removed
// only when no id it mentions is still servable.
type segmentInfo struct {
	path string
	ids  []uint64
}

const (
	peerFile  = "PEER"
	scopeFile = "SCOPE"
	journalF  = "journal"
	poolsDir  = "pools"
	quarDir   = "quarantine"
	segPrefix = "seg-"
	segSuffix = ".log"
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
// first open. The write is atomic (tmp + rename) so a crash mid-mint
// cannot leave a torn identity.
func (s *Store) loadPeer() error {
	path := filepath.Join(s.dir, peerFile)
	if data, err := os.ReadFile(path); err == nil {
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
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(s.peer.String()+"\n"), 0o644); err != nil {
		return fmt.Errorf("bank: store %s: %w", peerFile, err)
	}
	if err := os.Rename(tmp, path); err != nil {
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
// Random (not sequential) so ids are unguessable without the journal —
// see SECURITY.md.
func NewCorrID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("bank: entropy unavailable: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Recover scans the store: replays the claim journal, validates every
// segment, truncates torn tails, quarantines corrupt segments or pool
// directories, and builds the in-memory pool image. It must complete
// before any other store operation. A hard journal failure poisons the
// store permanently (fail closed); segment-level corruption only
// quarantines the affected files.
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
	claims, err := s.recoverJournal(&st)
	if err != nil {
		s.failed = fmt.Errorf("bank: claim journal unrecoverable, store disabled: %w", err)
		return RecoverStats{}, s.failed
	}
	if err := s.recoverPools(claims, &st); err != nil {
		s.failed = err
		return RecoverStats{}, s.failed
	}
	s.recovered = true
	s.stats = st
	s.observe(Event{Kind: "persist-recover", Depth: st.Records})
	return st, nil
}

// recoverJournal loads or creates the claim journal. Torn tails are
// truncated; anything else is a hard error (the caller fails the store
// closed).
func (s *Store) recoverJournal(st *RecoverStats) (map[uint64]map[uint64]bool, error) {
	path := filepath.Join(s.dir, journalF)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, err
	}
	var claims map[uint64]map[uint64]bool
	if len(data) == 0 {
		claims = make(map[uint64]map[uint64]bool)
		if err := os.WriteFile(path, journalMagic, 0o644); err != nil {
			return nil, err
		}
	} else {
		var keep int64
		var serr error
		claims, keep, serr = scanJournal(data)
		if serr == errTorn {
			st.TornTails++
			if err := os.Truncate(path, max(keep, int64(len(journalMagic)))); err != nil {
				return nil, err
			}
			if keep < int64(len(journalMagic)) {
				if err := os.WriteFile(path, journalMagic, 0o644); err != nil {
					return nil, err
				}
			}
		} else if serr != nil {
			return nil, serr
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.journal = f
	for _, ids := range claims {
		st.Claimed += len(ids)
	}
	return claims, nil
}

// recoverPools scans every pool directory under pools/.
func (s *Store) recoverPools(claims map[uint64]map[uint64]bool, st *RecoverStats) error {
	root := filepath.Join(s.dir, poolsDir)
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("bank: store pools: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		sc, ok := s.recoverPoolDir(dir, e.Name(), st)
		if !ok {
			continue
		}
		if prev, dup := s.scopes[sc.hash]; dup {
			return fmt.Errorf("bank: scope hash collision between %q and %q", prev.scope, sc.scope)
		}
		// Subtract journaled claims from what the segments offered.
		for id := range claims[sc.hash] {
			if _, have := sc.recs[id]; have {
				delete(sc.recs, id)
				sc.claimed[id] = true
			}
		}
		live := sc.avail[:0]
		for _, id := range sc.avail {
			if _, have := sc.recs[id]; have {
				live = append(live, id)
			}
		}
		sc.avail = live
		st.Pruned += s.pruneLocked(sc)
		s.scopes[sc.hash] = sc
		st.Scopes++
		st.Records += len(sc.avail)
		s.observe(Event{Kind: "persist-depth", Key: sc.scope.Key, Depth: len(sc.avail)})
	}
	return nil
}

// recoverPoolDir validates one pool directory, returning ok=false after
// quarantining it (or its corrupt segments).
func (s *Store) recoverPoolDir(dir, name string, st *RecoverStats) (*scopeState, bool) {
	scopeData, err := os.ReadFile(filepath.Join(dir, scopeFile))
	if err != nil {
		s.quarantine(dir, st)
		return nil, false
	}
	scope, err := parseScope(strings.TrimSpace(string(scopeData)))
	if err != nil || scope.dirName() != name || scope.Peer.loopback() {
		s.quarantine(dir, st)
		return nil, false
	}
	sc := &scopeState{
		scope: scope, hash: scope.hash(), dir: dir,
		recs: make(map[uint64][]byte), claimed: make(map[uint64]bool),
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		s.quarantine(dir, st)
		return nil, false
	}
	var segs []string
	for _, f := range files {
		n := f.Name()
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	for _, seg := range segs {
		path := filepath.Join(dir, seg)
		var idx int
		if _, err := fmt.Sscanf(seg, segPrefix+"%d"+segSuffix, &idx); err == nil && idx > sc.segIndex {
			sc.segIndex = idx
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.quarantine(path, st)
			continue
		}
		si := &segmentInfo{path: path}
		hdrScope, recs, keep, serr := scanSegment(data)
		switch {
		case serr == errTorn:
			st.TornTails++
			if err := os.Truncate(path, keep); err != nil {
				s.quarantine(path, st)
				continue
			}
			if keep == 0 {
				// Crashed before the header landed: nothing usable, and
				// the empty file is prunable.
				sc.segs = append(sc.segs, si)
				continue
			}
		case serr != nil:
			s.quarantine(path, st)
			continue
		}
		if len(recs) > 0 && hdrScope != scope.String() {
			s.quarantine(path, st)
			continue
		}
		st.Segments++
		for _, r := range recs {
			si.ids = append(si.ids, r.id)
			if _, dup := sc.recs[r.id]; dup {
				continue // replay of an earlier append; first wins
			}
			sc.recs[r.id] = r.blob
			sc.avail = append(sc.avail, r.id)
		}
		sc.segs = append(sc.segs, si)
	}
	return sc, true
}

// quarantine moves a corrupt segment file or pool directory aside so
// recovery completes without it — corrupt material is preserved for
// forensics, never served, and never deleted.
func (s *Store) quarantine(path string, st *RecoverStats) {
	base := filepath.Base(path)
	dst := filepath.Join(s.dir, quarDir, base)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, quarDir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		// Last resort: a quarantine that cannot move still must not serve.
		_ = os.Rename(path, path+".quarantined")
	}
	st.Quarantined++
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
	sc := &scopeState{
		scope: scope, hash: h,
		recs: make(map[uint64][]byte), claimed: make(map[uint64]bool),
	}
	if !mem {
		sc.dir = filepath.Join(s.dir, poolsDir, scope.dirName())
		if err := os.MkdirAll(sc.dir, 0o755); err != nil {
			return nil, fmt.Errorf("bank: pool dir: %w", err)
		}
		if err := os.WriteFile(filepath.Join(sc.dir, scopeFile), []byte(scope.String()+"\n"), 0o644); err != nil {
			return nil, fmt.Errorf("bank: pool scope file: %w", err)
		}
	}
	s.scopes[h] = sc
	return sc, nil
}

// Append adds one correlation record under scope, durably unless the
// scope is memory-only. The id must be fresh for the scope. The segment
// write is buffered by the OS — a crash may lose unsynced appends, which
// only costs regeneration (claims, not appends, carry the single-use
// guarantee).
func (s *Store) Append(scope Scope, id uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, err := s.getState(scope, true)
	if err != nil {
		return err
	}
	if sc.claimed[id] {
		return fmt.Errorf("bank: record id %d already claimed in scope", id)
	}
	if _, dup := sc.recs[id]; dup {
		return fmt.Errorf("bank: duplicate record id %d in scope", id)
	}
	if sc.dir != "" {
		if err := s.appendSegment(sc, id, blob); err != nil {
			return err
		}
	}
	stored := make([]byte, len(blob))
	copy(stored, blob)
	sc.recs[id] = stored
	sc.avail = append(sc.avail, id)
	if sc.dir == "" {
		return nil
	}
	if sc.segSize >= s.opts.segmentMax() {
		if err := s.rotateSegment(sc); err != nil {
			return err
		}
	}
	s.observe(Event{Kind: "persist-append", Key: scope.Key, Depth: len(sc.avail)})
	return nil
}

// appendSegment writes one record to sc's active segment file, opening
// one first if there is none.
func (s *Store) appendSegment(sc *scopeState, id uint64, blob []byte) error {
	if sc.seg == nil {
		if err := s.openSegment(sc); err != nil {
			return err
		}
	}
	rec := appendSegmentRecord(nil, id, blob)
	if _, err := sc.seg.Write(rec); err != nil {
		return fmt.Errorf("bank: segment append: %w", err)
	}
	sc.segSize += int64(len(rec))
	if sc.active != nil {
		sc.active.ids = append(sc.active.ids, id)
	}
	return nil
}

// openSegment starts a fresh segment file for sc. Recovery never reopens
// old segments for append, so a truncated tail is never re-extended.
func (s *Store) openSegment(sc *scopeState) error {
	sc.segIndex++
	path := filepath.Join(sc.dir, fmt.Sprintf("%s%06d%s", segPrefix, sc.segIndex, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bank: open segment: %w", err)
	}
	hdr := appendSegmentHeader(nil, sc.scope.String())
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("bank: segment header: %w", err)
	}
	sc.seg, sc.segSize = f, int64(len(hdr))
	sc.active = &segmentInfo{path: path}
	sc.segs = append(sc.segs, sc.active)
	s.observe(Event{Kind: "persist-segment", Key: sc.scope.Key})
	return nil
}

// rotateSegment fsyncs and closes the active segment; the next Append
// opens a new one. A closed segment becomes eligible for pruning once
// its every record is claimed.
func (s *Store) rotateSegment(sc *scopeState) error {
	if sc.seg == nil {
		return nil
	}
	sc.active = nil
	if err := sc.seg.Sync(); err != nil {
		sc.seg.Close()
		sc.seg = nil
		return fmt.Errorf("bank: segment sync: %w", err)
	}
	err := sc.seg.Close()
	sc.seg = nil
	return err
}

// pruneLocked deletes the scope's fully-claimed closed segment files and
// returns how many it removed. A file is dead when none of the record
// ids it holds is still servable (present in sc.recs); the active
// segment is never touched. Deleting a dead file cannot resurrect an id:
// the claim journal — which is what enforces single-use — is append-only
// and keeps its entries forever.
func (s *Store) pruneLocked(sc *scopeState) int {
	pruned := 0
	kept := sc.segs[:0]
	for _, seg := range sc.segs {
		dead := seg != sc.active
		for _, id := range seg.ids {
			if _, live := sc.recs[id]; live {
				dead = false
				break
			}
		}
		if !dead {
			kept = append(kept, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			kept = append(kept, seg) // retried on the next prune pass
			continue
		}
		pruned++
		s.observe(Event{Kind: "persist-prune", Key: sc.scope.Key})
	}
	// Drop the released tail so kept/segs never alias stale entries.
	for i := len(kept); i < len(sc.segs); i++ {
		sc.segs[i] = nil
	}
	sc.segs = kept
	return pruned
}

// claimLocked journals a claim, fsyncs the journal and applies the claim
// in memory. The in-memory mark happens even when the disk write fails:
// once a journal append was attempted the entry may be durable, so the
// record must never be served (the error then surfaces to the caller,
// who treats the draw as a miss).
func (s *Store) claimLocked(sc *scopeState, id uint64) error {
	delete(sc.recs, id)
	if sc.dir == "" {
		// Memory-only: no journal to write, and the filler's ids are
		// sequential, so there is no reuse to remember the claim against.
		return nil
	}
	sc.claimed[id] = true
	entry := appendJournalEntry(nil, sc.hash, id)
	if _, err := s.journal.Write(entry); err != nil {
		return fmt.Errorf("bank: journal append: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("bank: journal sync: %w", err)
	}
	s.observe(Event{Kind: "persist-journal-fsync"})
	s.observe(Event{Kind: "persist-claim", Key: sc.scope.Key})
	return nil
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
		b, have := sc.recs[id]
		if !have {
			continue // claimed through ClaimByID while queued
		}
		if err := s.claimLocked(sc, id); err != nil {
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
	b, have := sc.recs[id]
	if !have {
		return nil, false, nil
	}
	err = s.claimLocked(sc, id)
	// Claims by id mostly arrive in draw order: dropping spent ids off the
	// head keeps avail from growing with every correlation ever stored.
	for len(sc.avail) > 0 {
		if _, live := sc.recs[sc.avail[0]]; live {
			break
		}
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
	return len(sc.recs) // every unclaimed record, and only those, is in recs
}

// Recovered reports whether Recover has completed successfully.
func (s *Store) Recovered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Sync flushes the journal and every active segment to stable storage —
// the drain path, so a graceful shutdown leaves nothing in OS buffers.
// Every claim has already synced the journal; flushing it again here
// covers a claim whose own sync failed.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || s.closed {
		return nil
	}
	first := s.journal.Sync()
	for _, sc := range s.scopes {
		if sc.seg != nil {
			if err := sc.seg.Sync(); err != nil && first == nil {
				first = err
			}
		}
		// Drain doubles as cleanup: closed segments whose records have
		// all been claimed are deleted here, so the directory shrinks on
		// every graceful shutdown as well as on recovery.
		s.pruneLocked(sc)
	}
	return first
}

// Close syncs and closes every open file. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.journal != nil {
		first = s.journal.Sync()
		if err := s.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sc := range s.scopes {
		if sc.seg != nil {
			if err := sc.seg.Sync(); err != nil && first == nil {
				first = err
			}
			if err := sc.seg.Close(); err != nil && first == nil {
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
