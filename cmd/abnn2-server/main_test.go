package main

import (
	"testing"

	"abnn2"
)

// TestBankFlags: the bank exists if and only if -bank-dir is set, so
// -offline banked and a non-zero -bank-capacity are refused without it —
// a storeless bank would admit every session and fail every batch.
func TestBankFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offline string
		dir     string
		cap     int
		want    abnn2.OfflineMode
		wantErr bool
	}{
		{name: "no bank", offline: "auto"},
		{name: "bank at default capacity", offline: "auto", dir: "bank"},
		{name: "sized bank", offline: "auto", dir: "bank", cap: 4},
		{name: "banked with dir", offline: "banked", dir: "bank", cap: 4, want: abnn2.OfflineBanked},
		{name: "banked without dir", offline: "banked", cap: 4, wantErr: true},
		{name: "banked, no bank flags", offline: "banked", wantErr: true},
		{name: "capacity without dir", offline: "auto", cap: 4, wantErr: true},
		{name: "negative capacity", offline: "auto", dir: "bank", cap: -1, wantErr: true},
		{name: "unknown mode", offline: "inline", dir: "bank", wantErr: true},
	} {
		mode, err := bankFlags(tc.offline, tc.dir, tc.cap)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		} else if err == nil && mode != tc.want {
			t.Errorf("%s: mode = %v, want %v", tc.name, mode, tc.want)
		}
	}
}
