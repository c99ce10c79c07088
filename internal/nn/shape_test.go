package nn

import (
	"fmt"
	"strings"
	"testing"
)

// layerFile is one quantized model-file layer with all-zero weights and
// biases, as many as the shape asks for, so that geometry is its only
// fault; extra holds further keys. The float parser reads the same
// object and ignores the quantized-only keys.
func layerFile(in, out, weights int, extra string) string {
	zeros := func(n int) string { return strings.TrimSuffix(strings.Repeat("0,", n), ",") }
	return fmt.Sprintf(`{"in":%d,"out":%d,"w":[%s],"b":[%s],"scale":1,"scheme":"ternary"%s}`,
		in, out, zeros(weights), zeros(max(out, 0)), extra)
}

// Each loader refuses what a session refuses: a model file whose
// geometry core.Arch.Validate rejects is rejected by both parsers.
// quantOnly marks the rows whose fault lives in a key only the quantized
// file carries (the float parser ignores it).
func TestLoadersRefuseMalformedGeometry(t *testing.T) {
	valid := []byte(fmt.Sprintf(`{"frac":4,"layers":[%s,%s]}`, layerFile(4, 3, 12, `,"relu":true`), layerFile(3, 2, 6, "")))
	if _, err := UnmarshalQuantized(valid); err != nil {
		t.Fatalf("UnmarshalQuantized refused the control file: %v", err)
	}
	if _, err := UnmarshalModel(valid); err != nil {
		t.Fatalf("UnmarshalModel refused the control file: %v", err)
	}
	conv3x3 := `,"conv":{"ci":1,"h":3,"w":3,"kh":2,"kw":2,"stride":1,"pad":0}`
	conv4x4 := `,"conv":{"ci":1,"h":4,"w":4,"kh":2,"kw":2,"stride":1,"pad":0}`
	for _, tc := range []struct {
		name      string
		frac      int
		layers    []string
		quantOnly bool
	}{
		{"not-chained", 4, []string{layerFile(4, 3, 12, `,"relu":true`), layerFile(5, 2, 10, "")}, false},
		{"out-0", 4, []string{layerFile(2, 0, 0, "")}, false},
		{"in-negative", 4, []string{layerFile(-3, 0, 0, "")}, false},
		{"conv-in", 4, []string{layerFile(10, 1, 4, conv3x3)}, false},
		{"pool-without-conv", 4, []string{layerFile(4, 4, 16, `,"pool":{"k":2}`)}, false},
		{"pool-not-dividing", 4, []string{layerFile(16, 1, 4, conv4x4+`,"relu":true,"pool":{"k":2}`)}, false},
		// A hostile output grid: a 5x5 input padded by 10^6 is ~4*10^12
		// positions, and fields near 2^63 would overflow the sizes.
		{"conv-pad-huge", 4, []string{layerFile(25, 1, 4, `,"conv":{"ci":1,"h":5,"w":5,"kh":2,"kw":2,"stride":1,"pad":1000000}`)}, false},
		{"conv-grid-times-out", 4, []string{layerFile(1<<20, 32, 32*4, `,"conv":{"ci":1,"h":1024,"w":1024,"kh":2,"kw":2,"stride":1,"pad":0}`)}, false},
		{"conv-field-overflow", 4, []string{layerFile(1, 1, 1, `,"conv":{"ci":1,"h":1,"w":1,"kh":1,"kw":1,"stride":1,"pad":4611686018427387904}`)}, false},
		{"reqt-63", 4, []string{layerFile(2, 2, 4, `,"reqc":1,"reqt":63`)}, true},
		{"frac-63", 63, []string{layerFile(2, 2, 4, "")}, true},
	} {
		data := []byte(fmt.Sprintf(`{"frac":%d,"layers":[%s]}`, tc.frac, strings.Join(tc.layers, ",")))
		if _, err := UnmarshalQuantized(data); err == nil {
			t.Errorf("%s: UnmarshalQuantized accepted %s", tc.name, data)
		}
		if _, err := UnmarshalModel(data); err == nil && !tc.quantOnly {
			t.Errorf("%s: UnmarshalModel accepted %s", tc.name, data)
		}
	}
}
