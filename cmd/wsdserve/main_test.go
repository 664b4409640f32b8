package main

import (
	"net/http"
	"strings"
	"testing"
)

// TestHTTPServerTimeouts pins the listener's slow-client limits: a client
// that trickles its headers, or parks an idle keep-alive connection, must
// not hold a connection open forever.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("server addr %q handler %v, want :0 and the given mux", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want the positive constant %v", srv.IdleTimeout, idleTimeout)
	}
}

// TestFlagConflict pins the fail-fast matrix: every flag combination the
// process would otherwise silently ignore must be rejected before anything
// starts, and every legitimate combination must pass.
func TestFlagConflict(t *testing.T) {
	setOf := func(names ...string) map[string]bool {
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	cases := []struct {
		name        string
		mode        string
		set         map[string]bool
		partitioned bool
		partIndex   int
		partCount   int
		wantErr     string // substring; empty = must pass
	}{
		{name: "single/defaults", mode: "single", set: setOf(), partIndex: -1},
		{name: "single/worker-flags", mode: "single", set: setOf("pattern", "m", "shards"), partIndex: -1},
		{name: "single/coordinator-flag", mode: "single", set: setOf("workers"), partIndex: -1, wantErr: "-workers does not apply"},
		{name: "single/partition-is-coordinator-side", mode: "single", set: setOf("partition"), partitioned: true, partIndex: -1, wantErr: "-partition does not apply"},
		{name: "single/partition-slot", mode: "single", set: setOf("partition-index", "partition-count"), partIndex: 1, partCount: 3},
		{name: "single/index-without-count", mode: "single", set: setOf("partition-index"), partIndex: 1, wantErr: "must be set together"},
		{name: "single/count-without-index", mode: "single", set: setOf("partition-count"), partIndex: -1, partCount: 3, wantErr: "must be set together"},
		{name: "single/index-out-of-fleet", mode: "single", set: setOf("partition-index", "partition-count"), partIndex: 3, partCount: 3, wantErr: "outside the fleet"},
		{name: "single/negative-index", mode: "single", set: setOf("partition-index", "partition-count"), partIndex: -1, partCount: 3, wantErr: "outside the fleet"},
		{name: "single/zero-count", mode: "single", set: setOf("partition-index", "partition-count"), partIndex: 0, partCount: 0, wantErr: "at least 1"},
		{name: "single/window", mode: "single", set: setOf("window"), partIndex: -1},
		{name: "single/halflife", mode: "single", set: setOf("halflife"), partIndex: -1},
		{name: "coordinator/defaults", mode: "coordinator", set: setOf("workers")},
		{name: "coordinator/window-is-worker-side", mode: "coordinator", set: setOf("workers", "window"), wantErr: "-window does not apply"},
		{name: "coordinator/halflife-is-worker-side", mode: "coordinator", set: setOf("workers", "halflife"), wantErr: "-halflife does not apply"},
		{name: "coordinator/broadcast-quorum", mode: "coordinator", set: setOf("workers", "quorum", "mom")},
		{name: "coordinator/worker-flag", mode: "coordinator", set: setOf("workers", "pattern"), wantErr: "-pattern does not apply"},
		{name: "coordinator/worker-slot-flags", mode: "coordinator", set: setOf("workers", "partition-index"), wantErr: "-partition-index does not apply"},
		{name: "coordinator/partitioned", mode: "coordinator", set: setOf("workers", "partition"), partitioned: true},
		{name: "coordinator/partitioned-wal", mode: "coordinator", set: setOf("workers", "partition", "wal-dir"), partitioned: true},
		{name: "coordinator/partitioned-quorum", mode: "coordinator", set: setOf("workers", "partition", "quorum"), partitioned: true, wantErr: "-quorum does not apply with -partition"},
		{name: "coordinator/partitioned-mom", mode: "coordinator", set: setOf("workers", "partition", "mom"), partitioned: true, wantErr: "-mom does not apply with -partition"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := flagConflict(tc.mode, tc.set, tc.partitioned, tc.partIndex, tc.partCount)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("flagConflict = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("flagConflict = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
