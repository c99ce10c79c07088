package otext

import (
	"crypto/subtle"
	"fmt"
	"sync"

	"abnn2/internal/baseot"
	"abnn2/internal/bitmat"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

var oracle = prg.NewFastOracle("otext/pad")

// Sender is the OT-extension sender: the party that, after each Extend
// round, can derive the pad for every candidate choice value. In ABNN2's
// multiplication protocol the *client* (holding the random share r) plays
// this role. A Sender is bound to one connection, runs one code at a time
// (see Use) and must be paired with exactly one Receiver performing the
// same sequence of calls. Not safe for concurrent use, except that blocks
// may be released while Extend runs.
type Sender struct {
	conn    transport.Conn
	code    Code // what Extend runs over: at most len(cols) columns wide
	session uint64
	s       []byte // secret column-selection bits, one per column set up
	masks   []byte // C(v) AND s for v in [0, code.N()), code.WidthBits()/8 bytes each
	cols    []*prg.PRG
	counter uint64
	workers int
	qCols   *bitmat.Matrix // Extend's column-side scratch, reused across calls
	rows    rowPool        // the row matrices of released blocks
}

// Receiver is the OT-extension receiver: the party whose per-OT choice
// selects which pad it learns. In ABNN2 the *server* (holding quantized
// weight fragments) plays this role.
type Receiver struct {
	conn    transport.Conn
	code    Code // what Extend runs over: at most len(cols0) columns wide
	session uint64
	cols0   []*prg.PRG
	cols1   []*prg.PRG
	counter uint64
	workers int
	// Extend's column-side scratch and u flight, reused across calls.
	tCols *bitmat.Matrix
	u     []byte
	rows  rowPool // the row matrices of released blocks
}

// rowPool is a party's free list of row matrices: Extend takes the
// matrix it transposes into from it and a block's Release hands it back.
// Every matrix in it was taken by an Extend whose block has been
// released, so it never holds more than the peak number of blocks alive
// at once. The mutex is there because blocks are released on the
// goroutine that derives their pads, not always the one that extends.
type rowPool struct {
	mu   sync.Mutex
	free []*bitmat.Matrix
	peak int // most matrices free at once
}

// transpose returns the transpose of a round's column matrix, in a
// matrix from the list when it has one.
func (p *rowPool) transpose(cols *bitmat.Matrix, workers int) *bitmat.Matrix {
	var rows *bitmat.Matrix
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		rows, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	rows = bitmat.Resized(rows, cols.Cols, cols.Rows)
	bitmat.TransposeInto(rows, cols, workers)
	return rows
}

// put takes a block's matrix into the list, leaving the block none.
func (p *rowPool) put(m **bitmat.Matrix) {
	rows := live(*m)
	*m = nil
	p.mu.Lock()
	p.free = append(p.free, rows)
	p.peak = max(p.peak, len(p.free))
	p.mu.Unlock()
}

// live returns a block's row matrix, which Release takes away.
func live(rows *bitmat.Matrix) *bitmat.Matrix {
	if rows == nil {
		panic("otext: block used after Release")
	}
	return rows
}

// RowScratchPeak returns the most released row matrices the receiver has
// held at once.
func (r *Receiver) RowScratchPeak() int {
	r.rows.mu.Lock()
	defer r.rows.mu.Unlock()
	return r.rows.peak
}

// SetWorkers bounds the kernel parallelism of Extend (column PRG
// expansion and the bit-matrix transposes). 0, the default, means one
// worker per CPU. Any setting produces identical bytes on the wire;
// Extend itself remains a single-goroutine call.
func (s *Sender) SetWorkers(n int) { s.workers = n }

// SetWorkers mirrors Sender.SetWorkers for the receiving role.
func (r *Receiver) SetWorkers(n int) { r.workers = n }

// NewSender performs the base-OT setup for the sending role and leaves
// the sender running code: set-up is widening from no columns at all.
// rng supplies all local randomness.
func NewSender(conn transport.Conn, code Code, session uint64, rng *prg.PRG) (*Sender, error) {
	s := &Sender{conn: conn, session: session}
	if err := s.Widen(code, rng); err != nil {
		return nil, err
	}
	return s, s.Use(code)
}

// Widen runs base OTs for the columns code has beyond those already set
// up — none when the sender is wide enough — extending the secret s by
// one fresh bit and receiving one seed per new column (the extension
// sender is the base-OT receiver, per IKNP). The code in use and the
// state of the columns already there are untouched. The Receiver must
// call its Widen with the same code at the same point of the message
// sequence.
func (s *Sender) Widen(code Code, rng *prg.PRG) error {
	have, w := len(s.cols), code.WidthBits()
	if w <= have {
		return nil
	}
	fresh := rng.Bytes((w - have) / 8)
	choices := make([]byte, w-have)
	for i := range choices {
		choices[i] = (fresh[i/8] >> (uint(i) % 8)) & 1
	}
	seeds, err := baseot.Receive(s.conn, choices, rng)
	if err != nil {
		return fmt.Errorf("otext: sender setup: %w", err)
	}
	s.s = append(s.s, fresh...)
	for _, seed := range seeds {
		s.cols = append(s.cols, prg.New(seed))
	}
	return nil
}

// Columns returns how many code columns base OTs have been run for: the
// width of the widest code Use accepts.
func (s *Sender) Columns() int { return len(s.cols) }

// Use makes code the one the following Extend calls run over, on its
// first WidthBits columns; every column keeps its own PRG stream, so the
// columns a narrower code leaves out simply do not advance. It fails when
// code needs columns no base OT has been run for: widening talks to the
// peer and so is the caller's to order, not something a round may do
// behind its back. Blocks from earlier rounds stay valid.
func (s *Sender) Use(code Code) error {
	if code == s.code {
		return nil
	}
	w := code.WidthBits()
	if w > len(s.cols) {
		return fmt.Errorf("otext: code for N=%d needs %d columns, base OTs were run for %d", code.N(), w, len(s.cols))
	}
	masks := make([]byte, code.N()*w/8)
	for v := 0; v < code.N(); v++ {
		mv := masks[v*w/8 : (v+1)*w/8]
		code.Encode(v, mv)
		for k := range mv {
			mv[k] &= s.s[k]
		}
	}
	s.code, s.masks = code, masks
	return nil
}

// NewReceiver performs the base-OT setup for the receiving role, the
// mirror of NewSender.
func NewReceiver(conn transport.Conn, code Code, session uint64, rng *prg.PRG) (*Receiver, error) {
	r := &Receiver{conn: conn, session: session}
	if err := r.Widen(code, rng); err != nil {
		return nil, err
	}
	return r, r.Use(code)
}

// Widen mirrors Sender.Widen: one fresh seed pair per missing column,
// sent by base OT.
func (r *Receiver) Widen(code Code, rng *prg.PRG) error {
	have, w := len(r.cols0), code.WidthBits()
	if w <= have {
		return nil
	}
	pairs := make([][2]prg.Seed, w-have)
	for i := range pairs {
		rng.Fill(pairs[i][0][:])
		rng.Fill(pairs[i][1][:])
	}
	if err := baseot.Send(r.conn, pairs, rng); err != nil {
		return fmt.Errorf("otext: receiver setup: %w", err)
	}
	for i := range pairs {
		r.cols0 = append(r.cols0, prg.New(pairs[i][0]))
		r.cols1 = append(r.cols1, prg.New(pairs[i][1]))
	}
	return nil
}

// Columns mirrors Sender.Columns.
func (r *Receiver) Columns() int { return len(r.cols0) }

// Use mirrors Sender.Use.
func (r *Receiver) Use(code Code) error {
	if w := code.WidthBits(); w > len(r.cols0) {
		return fmt.Errorf("otext: code for N=%d needs %d columns, base OTs were run for %d", code.N(), w, len(r.cols0))
	}
	r.code = code
	return nil
}

// SenderBlock holds the sender's state for one Extend round of m OTs: the
// rows q_j from which pads for any choice value are derived. It is
// read-only after Extend, so any number of SenderDerivers may read it
// concurrently, until Release.
type SenderBlock struct {
	s     *Sender
	q     *bitmat.Matrix // m_pad x w
	masks []byte         // the sender's masks for the code the round ran over
	base  uint64         // counter value of OT 0 in this block
	m     int
}

// ReceiverBlock holds the receiver's state for one Extend round: rows t_j
// yielding the pad for the choice made at each index. Like a SenderBlock
// it is read-only until Release.
type ReceiverBlock struct {
	r       *Receiver
	t       *bitmat.Matrix // m_pad x w
	base    uint64
	m       int
	choices []int
}

// Extend runs one extension round for m OTs from the receiver side with
// the given per-OT choices (each in [0, N) of the code in use). It
// transmits the masked column matrix to the sender (one flight of m_pad *
// WidthBits bits) and returns the block from which pads are derived.
func (r *Receiver) Extend(choices []int) (*ReceiverBlock, error) {
	m := len(choices)
	if m == 0 {
		return nil, fmt.Errorf("otext: Extend with zero OTs")
	}
	w := r.code.WidthBits()
	mPad := (m + 7) &^ 7
	mBytes := mPad / 8

	planes, err := r.code.choicePlanes(choices, mBytes)
	if err != nil {
		return nil, err
	}

	// Column streams: t_i from seed0, u_i = t_i XOR PRG1_i XOR c_i, with
	// c_i column i of the code matrix (row j = C(choices[j])) from planes.
	// Each column owns its pair of PRGs, so columns expand independently
	// on the worker pool; the per-column PRG states advance exactly as
	// they would sequentially, keeping the wire bytes identical.
	r.tCols = bitmat.Resized(r.tCols, w, mPad)
	tCols := r.tCols
	if cap(r.u) < w*mBytes {
		r.u = make([]byte, w*mBytes)
	}
	u := r.u[:w*mBytes] // every byte written below; Send does not keep it
	par.Map(r.workers, w, func(i int) {
		ti := tCols.Row(i)
		r.cols0[i].Fill(ti)
		ui := u[i*mBytes : (i+1)*mBytes]
		r.cols1[i].Fill(ui)
		subtle.XORBytes(ui, ui, ti)
		r.code.xorColumn(ui, i, planes)
	})
	if err := r.conn.Send(u); err != nil {
		return nil, fmt.Errorf("otext: send u matrix: %w", err)
	}
	blk := &ReceiverBlock{
		r:       r,
		t:       r.rows.transpose(tCols, r.workers), // mPad x w
		base:    r.counter,
		m:       m,
		choices: choices,
	}
	r.counter += uint64(mPad)
	return blk, nil
}

// Extend runs one extension round for m OTs from the sender side,
// consuming the receiver's masked column matrix. The column streams are
// expanded before the matrix is received, while the receiver is still
// computing and sending it.
func (s *Sender) Extend(m int) (*SenderBlock, error) {
	if m == 0 {
		return nil, fmt.Errorf("otext: Extend with zero OTs")
	}
	w := s.code.WidthBits()
	mPad := (m + 7) &^ 7
	mBytes := mPad / 8
	s.qCols = bitmat.Resized(s.qCols, w, mPad)
	qCols := s.qCols
	par.Map(s.workers, w, func(i int) { s.cols[i].Fill(qCols.Row(i)) })
	u, err := s.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("otext: recv u matrix: %w", err)
	}
	if len(u) != w*mBytes {
		return nil, fmt.Errorf("otext: u matrix is %d bytes, want %d", len(u), w*mBytes)
	}
	for i := range w {
		if (s.s[i/8]>>(uint(i)%8))&1 == 1 {
			qi := qCols.Row(i)
			subtle.XORBytes(qi, qi, u[i*mBytes:(i+1)*mBytes])
		}
	}
	s.conn.Release(u)
	blk := &SenderBlock{
		s:     s,
		q:     s.rows.transpose(qCols, s.workers),
		masks: s.masks,
		base:  s.counter,
		m:     m,
	}
	s.counter += uint64(mPad)
	return blk, nil
}

// Conn exposes the underlying connection so protocols layered on the pads
// can send their payload flights on the same channel.
func (s *Sender) Conn() transport.Conn { return s.conn }

// Conn exposes the underlying connection (see Sender.Conn).
func (r *Receiver) Conn() transport.Conn { return r.conn }

// Count returns the number of OTs in the block.
func (b *ReceiverBlock) Count() int { return b.m }

// Release hands the block's row matrix back to its Sender for a later
// round to transpose into, once every pad has been derived: deriving from
// a released block panics. A block that is never released is garbage like
// any other. Release the block once, after its derivers are done.
func (b *SenderBlock) Release() { b.s.rows.put(&b.q) }

// Release mirrors SenderBlock.Release.
func (b *ReceiverBlock) Release() { b.r.rows.put(&b.t) }

// SenderDeriver derives the pads of one SenderBlock for one goroutine:
// the oracle's header block is paid once per deriver and each OT's index
// block once per run, after which the N candidates cost only their row
// blocks (and, past 16 bytes, their expansion). For OT j and candidate v
// the pad is H(session, counter_j, q_j XOR (C(v) AND s)); the receiver
// can compute the same bytes only for v equal to its choice at j.
type SenderDeriver struct {
	b *SenderBlock
	h prg.Deriver
}

// NewDeriver returns a deriver over b. Derivers are cheap; concurrent
// kernels take one per goroutine rather than sharing.
func (b *SenderBlock) NewDeriver() *SenderDeriver {
	return &SenderDeriver{b: b, h: oracle.Deriver(b.s.session, 0, live(b.q).Stride)}
}

// XORPadsRun XORs into dst the n-byte pads of candidates 0..cands-1 of
// the OTs j, j+1, ..., candidate v of OT j+i at dst[(i*cands+v)*n:]:
// len(dst)/(cands*n) OTs, all in the block. cands is at most the code's
// N; an OT of a smaller fragment asks for fewer. A run of one OT is one
// OT's pads.
func (d *SenderDeriver) XORPadsRun(dst []byte, n, j, cands int) {
	q := live(d.b.q)
	k := runLength(len(dst), n*cands, j, d.b.m)
	d.h.XORPadsRun(dst, n, d.b.base+uint64(j), q.Data[j*q.Stride:(j+k)*q.Stride], d.b.masks[:cands*q.Stride])
}

// ReceiverDeriver is the receiving side's SenderDeriver: the one pad per
// OT valid for the choice made at that index, H(session, counter_j, t_j).
type ReceiverDeriver struct {
	b *ReceiverBlock
	h prg.Deriver
}

// NewDeriver returns a deriver over b, one per goroutine.
func (b *ReceiverBlock) NewDeriver() *ReceiverDeriver {
	return &ReceiverDeriver{b: b, h: oracle.Deriver(b.r.session, 0, live(b.t).Stride)}
}

// XORPadsRun XORs into dst the n-byte pads of the OTs j, j+1, ..., OT
// j+i's at dst[i*n:]: len(dst)/n OTs, all in the block.
func (d *ReceiverDeriver) XORPadsRun(dst []byte, n, j int) {
	t := live(d.b.t)
	k := runLength(len(dst), n, j, d.b.m)
	d.h.XORPadsRun(dst, n, d.b.base+uint64(j), t.Data[j*t.Stride:(j+k)*t.Stride], nil)
}

// runLength returns the number of OTs whose pads, per bytes each, fill
// dstLen bytes from OT j, and panics unless they are OTs of a block of m.
func runLength(dstLen, per, j, m int) int {
	if per < 1 || dstLen%per != 0 || j < 0 || j+dstLen/per > m {
		panic(fmt.Sprintf("otext: %d pad bytes from OT %d are not whole OTs of %d bytes in [0,%d)", dstLen, j, per, m))
	}
	return dstLen / per
}

// Choice returns the receiver's choice at index j.
func (b *ReceiverBlock) Choice(j int) int { return b.choices[j] }
