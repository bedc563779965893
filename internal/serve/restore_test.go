package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestKillAndRestoreByteIdentical is the headline acceptance test: run the
// demo script for N frames uninterrupted; then run the first N/2 frames at
// a different worker count, snapshot, restore into a FRESH daemon at yet
// another worker count, and run the rest. The concatenated per-frame
// status streams must be byte-identical — the same diff CI performs across
// two OS processes.
func TestKillAndRestoreByteIdentical(t *testing.T) {
	const n = 16

	full := testConfig(1)
	full.MaxFrames = n
	full.Script = DemoScript()
	want := runToEnd(t, full)

	// First half at workers=4.
	half := testConfig(4)
	half.MaxFrames = n / 2
	half.Script = DemoScript()
	s1, err := New(half)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var firstHalf bytes.Buffer
	s1.SetStatusWriter(&firstHalf)
	if err := s1.Run(context.Background()); err != nil {
		t.Fatalf("Run (first half): %v", err)
	}
	blob, err := s1.SnapshotJSONDirect()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Second half from the snapshot, workers=2. Runtime knobs are restore
	// overrides; the replay identity (config + script) comes from the blob.
	s2, err := Restore(blob, Runtime{MaxFrames: n, StatusEvery: 1, Workers: 2})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := s2.Frame(); got != n/2 {
		t.Fatalf("restored at frame %d, want %d", got, n/2)
	}
	var secondHalf bytes.Buffer
	s2.SetStatusWriter(&secondHalf)
	if err := s2.Run(context.Background()); err != nil {
		t.Fatalf("Run (second half): %v", err)
	}

	if got := firstHalf.String() + secondHalf.String(); got != want {
		t.Errorf("kill-and-restore stream diverged from uninterrupted run:\n--- uninterrupted\n%s--- concatenated\n%s", want, got)
	}
}

// TestRestoreReplaysJournal checks externally injected commands survive a
// snapshot: a daemon takes live commands through the real queue path,
// snapshots, and the restored daemon must evolve exactly like a reference
// daemon whose SCRIPT contains the same commands at the recorded frame
// (scripted and journaled commands share one application path). The
// attach+detach case lands both in one boundary, before any frame admitted
// the UE: the detach is held until admission (cluster.DetachUE), never
// refused, and replays the same way.
func TestRestoreReplaysJournal(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmds []Command // UE −1 targets the UE the preceding attach created
	}{
		{"blockage", []Command{{Op: OpBlockage, Site: 0, UE: 1, DepthDB: 20, DurationS: 0.05}}},
		{"attach+detach", []Command{{Op: OpAttach, Site: 1, DurationS: 2}, {Op: OpDetach, Site: 1, UE: -1}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkJournalReplay(t, tc.cmds) })
	}
}

func checkJournalReplay(t *testing.T, cmds []Command) {
	const injectAt, snapAt, end = 4, 8, 14

	// Daemon A: step manually to the inject boundary, apply the commands via
	// the loop's own handler (stamping + journaling), continue, snapshot.
	a, err := New(testConfig(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for a.m.Frame() < injectAt {
		a.step()
	}
	script := make([]Command, len(cmds))
	lastUE := -1
	for i, cmd := range cmds {
		if cmd.UE == -1 {
			cmd.UE = lastUE
		}
		p := &pending{cmd: &cmd, reply: make(chan reply, 1)}
		a.handle(p, a.m.Frame())
		r := <-p.reply
		if r.err != nil {
			t.Fatalf("inject %s: %v", cmd.Op, r.err)
		}
		lastUE = r.val.(InjectResult).UE
		cmd.Frame = injectAt
		script[i] = cmd
	}
	if len(a.journal) != len(cmds) || a.journal[0].Frame != injectAt {
		t.Fatalf("journal = %+v, want %d entries at frame %d", a.journal, len(cmds), injectAt)
	}
	for a.m.Frame() < snapAt {
		a.step()
	}
	blob, err := a.snapshotNow()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Restored daemon: journal replays silently, then runs to the end.
	b, err := Restore(blob, Runtime{MaxFrames: end, StatusEvery: 1})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var gotTail bytes.Buffer
	b.SetStatusWriter(&gotTail)
	if err := b.Run(context.Background()); err != nil {
		t.Fatalf("Run (restored): %v", err)
	}

	// Reference daemon: same commands as script, full run.
	refCfg := testConfig(1)
	refCfg.MaxFrames = end
	refCfg.Script = script
	ref := runToEnd(t, refCfg)
	refLines := strings.SplitAfter(ref, "\n")
	wantTail := strings.Join(refLines[snapAt:], "")

	// The streams may differ ONLY in the journal-length field: the
	// reference carries the commands as script (jrnl=0), the restored
	// daemon as journal. Simulated state — every counter and the digest —
	// must match byte for byte.
	stripJrnl := regexp.MustCompile(` jrnl=\d+`)
	got := stripJrnl.ReplaceAllString(gotTail.String(), "")
	want := stripJrnl.ReplaceAllString(wantTail, "")
	if got != want {
		t.Errorf("restored daemon diverged from scripted reference after frame %d:\n--- reference tail\n%s--- restored\n%s", snapAt, want, got)
	}
	if jrnl := fmt.Sprintf(" jrnl=%d ", len(cmds)); !strings.Contains(gotTail.String(), jrnl) {
		t.Errorf("restored daemon lost journal entries (want%s):\n%s", jrnl, gotTail.String())
	}
}

// TestRestoreRejectsTampering: a snapshot that lies about its history must
// not serve. Each mutation corrupts one integrity anchor or records a config
// the manager refuses; every one must be an error, none a panic.
func TestRestoreRejectsTampering(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxFrames = 8
	cfg.Script = DemoScript()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	blob, err := s.SnapshotJSONDirect()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	mutate := func(name string, f func(*snapshotFile)) {
		var sf snapshotFile
		if err := json.Unmarshal(blob, &sf); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		f(&sf)
		tampered, err := json.Marshal(sf)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: Restore panicked: %v", name, p)
			}
		}()
		if _, err := Restore(tampered, Runtime{}); err == nil {
			t.Errorf("%s: Restore accepted a tampered snapshot", name)
		}
	}

	mutate("wrong format", func(sf *snapshotFile) { sf.Format = "not-a-snapshot" })
	mutate("wrong version", func(sf *snapshotFile) { sf.Version = SnapshotVersion + 1 })
	mutate("negative frame", func(sf *snapshotFile) { sf.Frame = -1 })
	mutate("frame off by one", func(sf *snapshotFile) { sf.Frame++ })
	mutate("seed drifted", func(sf *snapshotFile) { sf.Config.Metro.Seed++ })
	mutate("digest flipped", func(sf *snapshotFile) { sf.Digest = "00000000deadbeef" })
	mutate("draw count drifted", func(sf *snapshotFile) { sf.SiteDraws[0]++ })
	mutate("arrival drifted", func(sf *snapshotFile) { sf.NextArrivalBits[0] ^= 1 })
	mutate("script dropped", func(sf *snapshotFile) { sf.Config.Script = nil })
	mutate("MaxBeams 0", func(sf *snapshotFile) { sf.Config.Metro.Cluster.Station.Manager.MaxBeams = 0 })
	mutate("MaintainPeriod 0", func(sf *snapshotFile) { sf.Config.Metro.Cluster.Station.Manager.MaintainPeriod = 0 })
	if _, err := Restore([]byte("{"), Runtime{}); err == nil {
		t.Error("Restore accepted truncated JSON")
	}
}

// TestRestoreRejectsForeignJournal: journal entries beyond the snapshot
// frame or out of order are refused before any integrity check.
func TestRestoreRejectsForeignJournal(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxFrames = 6
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	blob, err := s.SnapshotJSONDirect()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var sf snapshotFile
	if err := json.Unmarshal(blob, &sf); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	sf.Journal = []Command{{Frame: sf.Frame + 3, Op: OpDetach, Site: 0, UE: 0}}
	tampered, _ := json.Marshal(sf)
	if _, err := Restore(tampered, Runtime{}); err == nil {
		t.Error("Restore accepted a journal entry beyond the snapshot frame")
	}
}
