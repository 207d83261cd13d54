package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nestedecpt/internal/trace"
)

// TestReplayDigest pins serve's replay stream: the JSONL of two seeded
// replays (2 shards, churn and probes on, every workload walk traced),
// with THP off and on, must hash to the committed digest. The stream
// carries every guest and host frame the build and the churn rounds
// mint, so a change to how serve builds or maps its guests and host
// shows here. A mismatch means the build, the churn or the walk
// changed — inspect the diff, then refresh with
// UPDATE_GOLDEN=1 go test -run TestReplayDigest ./internal/serve
func TestReplayDigest(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	for _, thp := range []bool{false, true} {
		cfg := ReplayConfig{Seed: 42, Shards: 2, ProbeEvery: 1, THP: thp}
		res, err := Replay(cfg)
		if err != nil {
			t.Fatalf("THP %v: %v", thp, err)
		}
		if res.Probes == 0 || res.Publishes == 0 {
			t.Fatalf("THP %v: %d probes, %d publishes; want churn and probes", thp, res.Probes, res.Publishes)
		}
		if thp {
			tw.RunHeader("replay/thp")
		} else {
			tw.RunHeader("replay/4k")
		}
		tw.Events(res.Events)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	goldenPath := filepath.Join("testdata", "replay.sha256")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("replay digest updated: %s", got)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing replay digest (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("replay digest mismatch:\n  got  %s\n  want %s\nserve's build, churn or walk changed; if intended, refresh with UPDATE_GOLDEN=1",
			got, strings.TrimSpace(string(want)))
	}
}
