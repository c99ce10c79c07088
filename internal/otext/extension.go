package otext

import (
	"crypto/subtle"
	"fmt"

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
// same sequence of calls. Not safe for concurrent use.
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
	// Extend's code-side and column-side scratch, reused across calls.
	// The row matrix t is not among them: the block Extend returns owns
	// it, and several blocks are alive at once.
	codeRows, codeCols, tCols *bitmat.Matrix
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
// concurrently.
type SenderBlock struct {
	s     *Sender
	q     *bitmat.Matrix // m_pad x w
	masks []byte         // the sender's masks for the code the round ran over
	base  uint64         // counter value of OT 0 in this block
	m     int
}

// ReceiverBlock holds the receiver's state for one Extend round: rows t_j
// yielding the pad for the choice made at each index.
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

	for _, c := range choices {
		if c < 0 || c >= r.code.N() {
			return nil, fmt.Errorf("otext: choice %d out of range [0,%d)", c, r.code.N())
		}
	}
	// Code matrix: row j = C(choices[j]); padding rows use choice 0.
	r.codeRows = bitmat.Resized(r.codeRows, mPad, w)
	codeRows := r.codeRows
	par.Map(r.workers, mPad, func(j int) {
		c := 0
		if j < m {
			c = choices[j]
		}
		r.code.Encode(c, codeRows.Row(j))
	})
	r.codeCols = bitmat.Resized(r.codeCols, w, mPad)
	codeCols := r.codeCols
	bitmat.TransposeInto(codeCols, codeRows, r.workers)

	// Column streams: t_i from seed0, u_i = t_i XOR PRG1_i XOR c_i.
	// Each column owns its pair of PRGs, so columns expand independently
	// on the worker pool; the per-column PRG states advance exactly as
	// they would sequentially, keeping the wire bytes identical.
	r.tCols = bitmat.Resized(r.tCols, w, mPad)
	tCols := r.tCols
	u := make([]byte, w*mBytes)
	par.Map(r.workers, w, func(i int) {
		ti := tCols.Row(i)
		r.cols0[i].Fill(ti)
		ui := u[i*mBytes : (i+1)*mBytes]
		r.cols1[i].Fill(ui)
		subtle.XORBytes(ui, ui, ti)
		subtle.XORBytes(ui, ui, codeCols.Row(i))
	})
	if err := r.conn.Send(u); err != nil {
		return nil, fmt.Errorf("otext: send u matrix: %w", err)
	}
	blk := &ReceiverBlock{
		r:       r,
		t:       bitmat.TransposePar(tCols, r.workers), // mPad x w
		base:    r.counter,
		m:       m,
		choices: choices,
	}
	r.counter += uint64(mPad)
	return blk, nil
}

// Extend runs one extension round for m OTs from the sender side,
// consuming the receiver's masked column matrix.
func (s *Sender) Extend(m int) (*SenderBlock, error) {
	if m == 0 {
		return nil, fmt.Errorf("otext: Extend with zero OTs")
	}
	w := s.code.WidthBits()
	mPad := (m + 7) &^ 7
	mBytes := mPad / 8
	u, err := s.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("otext: recv u matrix: %w", err)
	}
	if len(u) != w*mBytes {
		return nil, fmt.Errorf("otext: u matrix is %d bytes, want %d", len(u), w*mBytes)
	}
	s.qCols = bitmat.Resized(s.qCols, w, mPad)
	qCols := s.qCols
	par.Map(s.workers, w, func(i int) {
		qi := qCols.Row(i)
		s.cols[i].Fill(qi)
		if (s.s[i/8]>>(uint(i)%8))&1 == 1 {
			subtle.XORBytes(qi, qi, u[i*mBytes:(i+1)*mBytes])
		}
	})
	blk := &SenderBlock{
		s:     s,
		q:     bitmat.TransposePar(qCols, s.workers),
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

// SenderDeriver derives the pads of one SenderBlock for one goroutine:
// the oracle's header block is paid once per deriver and its index block
// once per Seek(j), after which each of the N candidates costs only its
// row blocks (and, past 16 bytes, its expansion). For OT j and candidate v
// the pad is H(session, counter_j, q_j XOR (C(v) AND s)); the receiver
// can compute the same bytes only for v equal to its choice at j.
type SenderDeriver struct {
	b      *SenderBlock
	h      prg.Deriver
	row    []byte // q_j of the OT Seek selected
	masked []byte // scratch for q_j XOR (C(v) AND s)
}

// NewDeriver returns a deriver over b. Derivers are cheap; concurrent
// kernels take one per goroutine rather than sharing.
func (b *SenderBlock) NewDeriver() *SenderDeriver {
	return &SenderDeriver{b: b, h: oracle.Deriver(b.s.session, 0, b.q.Stride), masked: make([]byte, b.q.Stride)}
}

// Seek selects OT index j for the following PadInto and XORPad calls.
func (d *SenderDeriver) Seek(j int) {
	if j < 0 || j >= d.b.m {
		panic(fmt.Sprintf("otext: pad index %d out of range [0,%d)", j, d.b.m))
	}
	d.row = d.b.q.Row(j)
	d.h.Index(d.b.base + uint64(j))
}

// XORPad XORs len(dst) pad bytes for candidate v of the selected OT into
// dst.
func (d *SenderDeriver) XORPad(v int, dst []byte) {
	w := len(d.masked)
	subtle.XORBytes(d.masked, d.row, d.b.masks[v*w:(v+1)*w])
	d.h.XORPad(dst, d.masked)
}

// PadInto overwrites dst with pad bytes for candidate v of the selected OT.
func (d *SenderDeriver) PadInto(v int, dst []byte) {
	clear(dst)
	d.XORPad(v, dst)
}

// ReceiverDeriver is the receiving side's SenderDeriver: the one pad per
// OT valid for the choice made at that index, H(session, counter_j, t_j).
type ReceiverDeriver struct {
	b   *ReceiverBlock
	h   prg.Deriver
	row []byte // t_j of the OT Seek selected
}

// NewDeriver returns a deriver over b, one per goroutine.
func (b *ReceiverBlock) NewDeriver() *ReceiverDeriver {
	return &ReceiverDeriver{b: b, h: oracle.Deriver(b.r.session, 0, b.t.Stride)}
}

// Seek selects OT index j for the following PadInto and XORPad calls.
func (d *ReceiverDeriver) Seek(j int) {
	if j < 0 || j >= d.b.m {
		panic(fmt.Sprintf("otext: pad index %d out of range [0,%d)", j, d.b.m))
	}
	d.row = d.b.t.Row(j)
	d.h.Index(d.b.base + uint64(j))
}

// XORPad XORs len(dst) pad bytes of the selected OT into dst.
func (d *ReceiverDeriver) XORPad(dst []byte) { d.h.XORPad(dst, d.row) }

// PadInto overwrites dst with pad bytes of the selected OT.
func (d *ReceiverDeriver) PadInto(dst []byte) {
	clear(dst)
	d.XORPad(dst)
}

// Choice returns the receiver's choice at index j.
func (b *ReceiverBlock) Choice(j int) int { return b.choices[j] }
