package core

import (
	"abnn2/internal/baseline"
	"abnn2/internal/otext"
	"abnn2/internal/quant"
)

// Analytic communication/OT-count formulas reproducing the paper's
// Table 1, one per backend (the backend table's cost entries). These are
// cross-checked against measured wire bytes in the test suite
// (TestCommunicationMatchesTable1, and TestBackendTable for every backend)
// — the implementation's steady-state traffic equals CommBits exactly,
// framing aside.
//
// Table 1 charges every 1-out-of-N OT 2*kappa column-matrix bits
// whatever N is. This implementation sends the columns of the KK13 code
// sized to the layer's largest N (schemeCode), 2*kappa only above N = 32,
// so each row carries both figures: CommBits is what crosses the wire
// here, PaperBits the formula as printed.

// Complexity is one row of Table 1 for a concrete shape and scheme, plus
// what the planner prices beside bytes.
type Complexity struct {
	Label       string
	NumOTs      int64   // # OT invocations
	CommBits    float64 // total communication in bits, as implemented
	PaperBits   float64 // the same at Table 1's 2*kappa column bits per OT
	Flights     int     // flights a party waits on, i.e. not overlapped by sending ahead
	PaillierOps int64   // Paillier encryptions, decryptions and ciphertext products
}

// CommMB returns communication in MiB (the paper's tables use MiB and
// label it MB; we follow its convention when printing).
func (c Complexity) CommMB() float64 { return c.CommBits / 8 / (1 << 20) }

// PaperMB is CommMB for the paper-faithful figure.
func (c Complexity) PaperMB() float64 { return c.PaperBits / 8 / (1 << 20) }

// SecureMLComplexity evaluates Table 1's SecureML column: OT count
// l(l+1)/128 * mno and, in PaperBits, communication
// mno*l(l+1)*(1+kappa/64) bits. What internal/baseline sends is one
// correlated OT per weight bit carrying o ring elements — m*n*l OTs of
// kappa column bits and o*l correction bits, in rounds of SecureMLChunk,
// two flights each — and that is CommBits.
func SecureMLComplexity(l uint, sh MatShape) Complexity {
	mno := int64(sh.M) * int64(sh.N) * int64(sh.O)
	ll1 := float64(l) * float64(l+1)
	cots := int64(sh.M) * int64(sh.N) * int64(l)
	return Complexity{
		Label:     "SecureML",
		NumOTs:    int64(ll1/128*float64(mno) + 0.5),
		CommBits:  float64(cots) * (otext.Kappa + float64(sh.O)*float64(l)),
		PaperBits: float64(mno) * ll1 * (1 + float64(otext.Kappa)/64),
		Flights:   2 * int((cots+baseline.SecureMLChunk-1)/baseline.SecureMLChunk),
	}
}

// abnn2Complexity sums payloadBits(N) plus the column-matrix bits over
// the gamma*m*n OTs of a (possibly mixed-N) scheme.
func abnn2Complexity(label string, scheme quant.Scheme, sh MatShape, payloadBits func(n float64) float64) Complexity {
	mn := float64(sh.M) * float64(sh.N)
	cols := float64(schemeCode(scheme).WidthBits())
	c := Complexity{Label: label + " " + scheme.Name(), NumOTs: int64(scheme.Gamma()) * int64(sh.M) * int64(sh.N)}
	c.Flights = OfflineFlights(c.NumOTs) // one round trip per window, not per chunk
	for f := 0; f < scheme.Gamma(); f++ {
		payload := payloadBits(float64(scheme.FragmentN(f)))
		c.CommBits += mn * (payload + cols)
		c.PaperBits += mn * (payload + 2*otext.Kappa)
	}
	return c
}

// MultiBatchComplexity evaluates Table 1's "Ours' M-Batch" column for a
// (possibly mixed-N) scheme: per fragment, o*l*N payload bits plus the
// column-matrix bits, summed over gamma*m*n OTs.
func MultiBatchComplexity(l uint, scheme quant.Scheme, sh MatShape) Complexity {
	return abnn2Complexity("Ours M-Batch", scheme, sh, func(n float64) float64 {
		return float64(sh.O) * float64(l) * n
	})
}

// OneBatchComplexity evaluates Table 1's "Ours' 1-Batch" column:
// l*(N-1) payload bits plus the column-matrix bits per OT.
func OneBatchComplexity(l uint, scheme quant.Scheme, sh MatShape) Complexity {
	return abnn2Complexity("Ours 1-Batch", scheme, sh, func(n float64) float64 {
		return float64(l) * (n - 1)
	})
}

// MiniONNComplexity models the Paillier baseline's offline traffic: the
// client uploads n*o ciphertexts of Enc(r), the server returns m*o
// ciphertexts of Enc(W*r - u), each ciphertext 2*keyBits bits; no OTs.
// The three flights are the public key, the ciphertexts up and the
// ciphertexts down.
func MiniONNComplexity(keyBits int, sh MatShape) Complexity {
	ops := (int64(sh.N) + int64(sh.M)) * int64(sh.O)
	bits := float64(ops) * 2 * float64(keyBits)
	return Complexity{Label: "MiniONN", CommBits: bits, PaperBits: bits, Flights: 3, PaillierOps: ops}
}

// QuotientComplexity models the ternary correlated-OT baseline: 2 COTs
// per weight (one per nonzero sign candidate), each costing l payload
// bits plus the column-matrix bits — kappa of them, since a COT is a
// 1-out-of-2 OT over the repetition code. Vector-only (o = 1).
func QuotientComplexity(l uint, sh MatShape) Complexity {
	mn := float64(sh.M) * float64(sh.N)
	return Complexity{
		Label:     "QUOTIENT",
		NumOTs:    2 * int64(sh.M) * int64(sh.N),
		CommBits:  2 * mn * (float64(l) + float64(otext.RepetitionCode().WidthBits())),
		PaperBits: 2 * mn * (float64(l) + 2*otext.Kappa),
		Flights:   2,
	}
}

// OfflineComplexity returns the formula matching the implementation's
// mode selection for a batch size.
func OfflineComplexity(l uint, scheme quant.Scheme, sh MatShape) Complexity {
	if sh.O == 1 {
		return OneBatchComplexity(l, scheme, sh)
	}
	return MultiBatchComplexity(l, scheme, sh)
}
