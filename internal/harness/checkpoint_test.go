package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/failure"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// ckptCase is one checkpoint/resume differential configuration.
type ckptCase struct {
	name  string
	cfg   SimConfig
	every func(slice sim.Time) sim.Time // checkpoint cadence from the slice length
}

// midSlice lands checkpoint instants strictly inside a slice; onBoundary
// lands them exactly on slice starts. Both must restore bit-identically.
func midSlice(slice sim.Time) sim.Time   { return 10*slice + slice/3 }
func onBoundary(slice sim.Time) sim.Time { return 16 * slice }

func ckptCases() []ckptCase {
	dctcp := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	ndp := ScaledConfig(UCMP, transport.NDP, "websearch")
	rotor := ScaledConfig(VLB, transport.Rotor, "datamining")

	failing := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	// A ToR dies before the checkpoint instants and never recovers: the
	// restored run must keep it dead (the failure schedule is re-derived
	// from time, not snapshotted).
	failing.Failures = failure.NewTimeline().TorDown(300*sim.Microsecond, 3)
	failing.SampleEvery = 200 * sim.Microsecond

	shardedCfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	shardedCfg.Shards = 4

	shardedRotor := ScaledConfig(VLB, transport.Rotor, "datamining")
	shardedRotor.Shards = 4
	shardedRotor.Failures = failure.NewTimeline().TorDown(300*sim.Microsecond, 5)
	shardedRotor.SampleEvery = 200 * sim.Microsecond

	cases := []ckptCase{
		{"serial-ucmp-dctcp-midslice", dctcp, midSlice},
		{"serial-ucmp-ndp-boundary", ndp, onBoundary},
		{"serial-vlb-rotor", rotor, midSlice},
		{"serial-ucmp-dctcp-failure", failing, midSlice},
		{"sharded-ucmp-dctcp", shardedCfg, midSlice},
		{"sharded-vlb-rotor-failure", shardedRotor, onBoundary},
	}
	for i := range cases {
		cases[i].cfg.Duration = sim.Millisecond
		cases[i].cfg.Seed = int64(31 + i)
	}
	return cases
}

// ckptFingerprint excludes Events for sharded runs (window advancement
// differs across worker schedules only in idle-domain bookkeeping, never in
// model state; the sharded differential tests make the same exclusion) and
// includes collector output so restored metrics state is covered too.
func ckptFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	out := fingerprint(r)
	if r.Sharded {
		lines := strings.SplitN(out, "\n", 3)
		out = lines[0] + "\n" + lines[2]
	}
	out += "\nsamples:"
	for _, s := range r.Collector.Samples {
		out += fmt.Sprintf(" %d/%.12f/%.12f/%.12f/%.12f/%.12f",
			int64(s.At), s.TorToHostUtil, s.HostToTorUtil, s.TorToTorUtil, s.JainQueueIndex, s.JainLoadIndex)
	}
	out += "\nrecords:"
	for _, fr := range r.Collector.Flows {
		out += fmt.Sprintf(" %d:%d:%v:%v", fr.Size, int64(fr.FCT), fr.Rotor, fr.Priority)
	}
	return out
}

// TestDifferentialCheckpointResume is the headline guarantee: for serial
// and sharded engines, with and without an active failure timeline,
//
//	fingerprint(run 0→T)
//	  == fingerprint(run 0→T with checkpointing on)
//	  == fingerprint(restore last checkpoint → run t→T)
func TestDifferentialCheckpointResume(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			every := tc.every(tc.cfg.Topo.SliceDuration)

			plain, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := ckptFingerprint(t, plain)

			ck := tc.cfg
			ck.CheckpointDir = dir
			ck.CheckpointEvery = every
			ckres, err := Run(ck)
			if err != nil {
				t.Fatal(err)
			}
			if got := ckptFingerprint(t, ckres); got != want {
				t.Fatalf("checkpointing perturbed the run:\n--- plain ---\n%s\n--- checkpointing ---\n%s", want, got)
			}

			rs := ck
			rs.Resume = true
			rsres, err := Run(rs)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(rsres.ResumeNote, "resumed at") {
				t.Fatalf("expected a resume, got note %q", rsres.ResumeNote)
			}
			if got := ckptFingerprint(t, rsres); got != want {
				t.Fatalf("resume diverged:\n--- plain ---\n%s\n--- resumed ---\n%s", want, got)
			}
		})
	}
}

// TestSnapshotRestoreIdempotent: restoring the latest checkpoint into a
// fresh simulation and snapshotting it again at once reproduces the file
// byte for byte, so no field is dropped by either the encode or the decode
// side of any layer's section.
func TestSnapshotRestoreIdempotent(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ck := tc.cfg
			ck.CheckpointDir = t.TempDir()
			ck.CheckpointEvery = tc.every(ck.Topo.SliceDuration)
			if _, err := Run(ck); err != nil {
				t.Fatal(err)
			}
			st, err := buildSim(ck, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.restoreCheckpoint(); err != nil {
				t.Fatal(err)
			}
			key := configKey(st.cfg, st.flows)
			want, err := os.ReadFile(checkpoint.FileName(ck.CheckpointDir, key))
			if err != nil {
				t.Fatal(err)
			}
			w, err := st.snapshot(key)
			if err != nil {
				t.Fatal(err)
			}
			got := w.Encode()
			if bytes.Equal(got, want) {
				return
			}
			wf, err1 := checkpoint.Parse(want, checkpoint.Magic)
			gf, err2 := checkpoint.Parse(got, checkpoint.Magic)
			if err1 != nil || err2 != nil {
				t.Fatalf("re-snapshot differs from the restored file (%v, %v)", err1, err2)
			}
			for _, name := range wf.Names() {
				wb, _ := wf.Body(name)
				gb, err := gf.Body(name)
				if err != nil || !bytes.Equal(wb, gb) {
					t.Errorf("section %q: re-snapshot differs from the restored file (%d vs %d bytes)", name, len(gb), len(wb))
				}
			}
			t.Fatalf("re-snapshot differs from the restored file (%d vs %d bytes)", len(got), len(want))
		})
	}
}

// TestResumeMissingCheckpoint: Resume without a checkpoint on disk degrades
// to a cold run with the reason recorded, and identical results.
func TestResumeMissingCheckpoint(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Duration = sim.Millisecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 500 * sim.Microsecond
	cfg.Resume = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.ResumeNote, "cold run") {
		t.Fatalf("expected a cold-run note, got %q", res.ResumeNote)
	}
	if fingerprint(res) != fingerprint(plain) {
		t.Fatal("cold fallback diverged from a plain run")
	}
}

// TestResumeCorruptionRejected flips single bytes across the whole
// checkpoint file — header, every section, checksums — and requires each
// corruption to be rejected with a clean cold fallback whose result is
// identical to an uninterrupted run.
func TestResumeCorruptionRejected(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.NDP, "websearch")
	cfg.Duration = sim.Millisecond
	cfg.SampleEvery = 250 * sim.Microsecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(plain)

	dir := t.TempDir()
	ck := cfg
	ck.CheckpointDir = dir
	ck.CheckpointEvery = 400 * sim.Microsecond
	if _, err := Run(ck); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one checkpoint file, got %v (%v)", ents, err)
	}
	path := filepath.Join(dir, ents[0].Name())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rs := ck
	rs.Resume = true
	// One flip inside the header, then one inside each stretch of the
	// payload (sections are contiguous, so stepping through the file hits
	// every section at least once).
	offsets := []int{9}
	step := (len(orig) - 40) / 12
	if step < 1 {
		step = 1
	}
	for off := 40; off < len(orig); off += step {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(rs)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !strings.Contains(res.ResumeNote, "cold run") {
			t.Fatalf("offset %d: corruption not rejected, note %q", off, res.ResumeNote)
		}
		if fingerprint(res) != want {
			t.Fatalf("offset %d: cold fallback diverged", off)
		}
	}
}
