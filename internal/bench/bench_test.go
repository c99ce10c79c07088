package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The table functions back both the bench harness and these shape
// assertions: the *relationships* the paper reports must hold in our
// reproduction (who wins, and in which direction ratios point).

func quickOpts() Options { return Options{Quick: true} }

func TestTable1Shapes(t *testing.T) {
	rows := Table1(quickOpts())
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	secML, ours := rows[0], rows[1]
	if ours.NumOTs >= secML.NumOTs {
		t.Errorf("ABNN2 multi-batch OTs (%d) should be far below SecureML (%d)", ours.NumOTs, secML.NumOTs)
	}
	if ours.CommMB >= secML.CommMB {
		t.Errorf("ABNN2 multi-batch comm (%.2f) should beat SecureML (%.2f)", ours.CommMB, secML.CommMB)
	}
	secML1, ours1 := rows[2], rows[3]
	if ours1.CommMB >= secML1.CommMB {
		t.Errorf("ABNN2 1-batch comm (%.2f) should beat SecureML (%.2f)", ours1.CommMB, secML1.CommMB)
	}
}

func TestTable2Shapes(t *testing.T) {
	rows := Table2(quickOpts())
	byKey := map[string]Table2Row{}
	for _, r := range rows {
		byKey[r.Scheme+"/"+itoa(r.Batch)] = r
	}
	// The paper's headline: (2,2,2,2) communicates less than (1,...,1)
	// at batch 1, and binary < ternary < everything.
	if byKey["8(2,2,2,2)/1"].CommMB >= byKey["8(1,1,1,1,1,1,1,1)/1"].CommMB {
		t.Error("(2,2,2,2) should communicate less than (1,...,1) at batch 1")
	}
	if byKey["binary/1"].CommMB >= byKey["ternary/1"].CommMB {
		t.Error("binary should communicate less than ternary")
	}
	if byKey["ternary/1"].CommMB >= byKey["8(2,2,2,2)/1"].CommMB {
		t.Error("ternary should communicate less than 8-bit")
	}
	// Larger batches amortize: comm per prediction must fall.
	b1 := byKey["8(2,2,2,2)/1"]
	b8 := byKey["8(2,2,2,2)/8"]
	if b8.CommMB/8 >= b1.CommMB {
		t.Errorf("multi-batch per-prediction comm (%.2f) should beat single (%.2f)", b8.CommMB/8, b1.CommMB)
	}
	// At batch 1, (3,3,2) beats (4,4) on comm (paper Table 2: 18.47 < 20.72).
	if byKey["8(3,3,2)/1"].CommMB >= byKey["8(4,4)/1"].CommMB {
		t.Error("(3,3,2) should communicate less than (4,4) at batch 1")
	}
}

func TestTable3Shapes(t *testing.T) {
	rows := Table3(quickOpts())
	var binary, ternary, eight, secml Table3Row
	for _, r := range rows {
		switch r.System {
		case "binary":
			binary = r
		case "ternary":
			ternary = r
		case "8(2,2,2,2)":
			eight = r
		case "SecureML":
			secml = r
		}
	}
	if binary.CommMB >= secml.CommMB || ternary.CommMB >= secml.CommMB || eight.CommMB >= secml.CommMB {
		t.Errorf("all quantized schemes should beat SecureML comm: b=%.2f t=%.2f 8=%.2f vs %.2f",
			binary.CommMB, ternary.CommMB, eight.CommMB, secml.CommMB)
	}
	if binary.WANSec >= secml.WANSec {
		t.Errorf("binary WAN (%.2f) should beat SecureML (%.2f)", binary.WANSec, secml.WANSec)
	}
	// WAN slower than LAN for everything.
	for _, r := range rows {
		if r.WANSec <= r.LANSec {
			t.Errorf("%s: WAN %.3f <= LAN %.3f", r.System, r.WANSec, r.LANSec)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	rows := Table4(quickOpts())
	get := func(system string, batch int) Table4Row {
		for _, r := range rows {
			if r.System == system && r.Batch == batch {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", system, batch)
		return Table4Row{}
	}
	big := 8 // quick mode's large batch
	// ABNN2 should beat MiniONN at the larger batch (the paper's claim:
	// 3-7x LAN at batchsize 128).
	mini := get("MiniONN", big)
	ours := get("Our binary", big)
	if ours.LANSec >= mini.LANSec {
		t.Errorf("ABNN2 binary LAN (%.2f) should beat MiniONN (%.2f) at batch %d", ours.LANSec, mini.LANSec, big)
	}
	// Comm ordering within our schemes: binary <= ternary <= 3(2,1) <= 4(2,2).
	b := get("Our binary", 1).CommMB
	tern := get("Our ternary", 1).CommMB
	s21 := get("Our 3(2,1)", 1).CommMB
	s22 := get("Our 4(2,2)", 1).CommMB
	if !(b <= tern && tern <= s21 && s21 <= s22) {
		t.Errorf("comm ordering violated: binary=%.2f ternary=%.2f 3(2,1)=%.2f 4(2,2)=%.2f", b, tern, s21, s22)
	}
}

func TestTable5Shapes(t *testing.T) {
	rows := Table5(quickOpts())
	foundRef, foundOurs := false, false
	for _, r := range rows {
		if r.Reference {
			foundRef = true
		} else {
			foundOurs = true
			if r.CommMB <= 0 {
				t.Error("our rows must have measured comm")
			}
		}
	}
	if !foundRef || !foundOurs {
		t.Error("table 5 must contain both published and measured rows")
	}
}

func TestAblationOneBatchSavesComm(t *testing.T) {
	rows := AblationOneBatch(quickOpts())
	if rows[1].CommMB >= rows[0].CommMB {
		t.Errorf("C-OT (%.2f MB) should beat naive (%.2f MB)", rows[1].CommMB, rows[0].CommMB)
	}
}

func TestAblationMultiBatchSavesComm(t *testing.T) {
	rows := AblationMultiBatch(quickOpts())
	// Multi-batch trades payload for fewer column matrices; the win is in
	// the 2*kappa column term, which dominates for small o*l. At the
	// ablation's parameters the reuse must strictly reduce total comm.
	if rows[0].CommMB >= rows[1].CommMB {
		t.Errorf("multi-batch (%.2f MB) should beat repeated one-batch (%.2f MB)", rows[0].CommMB, rows[1].CommMB)
	}
}

func TestAblationReLU(t *testing.T) {
	rows := AblationReLU(quickOpts())
	if rows[1].CommMB >= rows[0].CommMB {
		t.Errorf("optimized ReLU (%.2f MB) should beat Algorithm 2 (%.2f MB)", rows[1].CommMB, rows[0].CommMB)
	}
}

func TestAblationFragmentN(t *testing.T) {
	rows := AblationFragmentN(quickOpts())
	by := map[string]AblationRow{}
	for _, r := range rows {
		by[r.Label] = r
	}
	// (2,2,2,2) must beat (1 x 8) — the paper's Table 2 relationship —
	// and N=256 must be catastrophically worse than N=16.
	if by["8(2,2,2,2)"].CommMB >= by["8(1,1,1,1,1,1,1,1)"].CommMB {
		t.Error("N=4 should communicate less than N=2 for 8-bit weights")
	}
	if by["8(8)"].CommMB <= by["8(4,4)"].CommMB {
		t.Error("N=256 should communicate more than N=16")
	}
}

func TestAblationRing(t *testing.T) {
	rows := AblationRing(quickOpts())
	if rows[1].CommMB >= rows[0].CommMB {
		t.Errorf("l=32 requant (%.2f MB) should communicate less than l=64 (%.2f MB)", rows[1].CommMB, rows[0].CommMB)
	}
}

func TestTableCNNShapes(t *testing.T) {
	rows := TableCNN(quickOpts())
	by := map[string]TableCNNRow{}
	for _, r := range rows {
		by[r.Scheme] = r
		if r.CommMB <= 0 {
			t.Errorf("%s: empty measurement", r.Scheme)
		}
	}
	if by["binary"].CommMB >= by["8(2,2,2,2)"].CommMB {
		t.Error("binary CNN should communicate less than 8-bit")
	}
}

func TestAccuracyLadder(t *testing.T) {
	rows := Accuracy(quickOpts())
	by := map[string]AccuracyRow{}
	for _, r := range rows {
		if r.SecureMatch != 1.0 {
			t.Errorf("%s: secure agreement %.2f, want 1.0", r.Scheme, r.SecureMatch)
		}
		by[r.Scheme] = r
	}
	// 8-bit must not trail binary; it should track float closely.
	if by["8(2,2,2,2)"].QuantAcc+0.1 < by["binary"].QuantAcc {
		t.Errorf("8-bit accuracy %.3f far below binary %.3f", by["8(2,2,2,2)"].QuantAcc, by["binary"].QuantAcc)
	}
	if by["8(2,2,2,2)"].QuantAcc < by["8(2,2,2,2)"].FloatAcc-0.15 {
		t.Errorf("8-bit accuracy %.3f far below float %.3f", by["8(2,2,2,2)"].QuantAcc, by["8(2,2,2,2)"].FloatAcc)
	}
}

func TestAblationXONN(t *testing.T) {
	rows := AblationXONN(quickOpts())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CommMB <= 0 || r.WallSec <= 0 {
			t.Errorf("row %q has empty measurement", r.Label)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("x", "y")
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "-") {
		t.Errorf("table output malformed:\n%s", out)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
