package engine

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

// TestDurableDamagedCheckpointRefused: snap.ckpt is published only by a
// post-fsync rename, so damage in it is corruption, never a crash
// artifact. A flipped payload byte, a file cut before its trailer, a
// first frame claiming a gigabyte, a record missing from the trailer's
// count and a record after the trailer each make OpenDurable fail, and
// none of them costs the open what a damaged frame claims.
func TestDurableDamagedCheckpointRefused(t *testing.T) {
	cases := []struct {
		name   string
		damage func(raw []byte) []byte
	}{
		{"flipped payload byte", func(raw []byte) []byte {
			raw[8+3] ^= 0x40
			return raw
		}},
		{"cut before trailer", func(raw []byte) []byte {
			return raw[:lastFrameAt(t, raw)]
		}},
		{"gigabyte first frame", func(raw []byte) []byte {
			binary.BigEndian.PutUint32(raw, 1<<30-1)
			return raw
		}},
		// Whole frames, each checking out: the trailer's count or
		// position is what is wrong.
		{"first record dropped", func(raw []byte) []byte {
			return raw[8+binary.BigEndian.Uint32(raw):]
		}},
		{"record after trailer", func(raw []byte) []byte {
			return append(raw, raw[:8+binary.BigEndian.Uint32(raw)]...)
		}},
	}
	ps := model.Figure7Stats()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			opts := DurableOptions{PoolPages: 8}
			e := openTestDurable(t, dir, opts)
			d := newDriver(e.Path(), 12)
			for i := 0; i < 40; i++ {
				if err := d.step(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e2, err := OpenDurable(dir, ps.Path.Schema(), ps.Path, cfgSplit, 1024, opts)
			runtime.ReadMemStats(&after)
			if err == nil {
				e2.Close()
				t.Fatal("opened over a damaged checkpoint")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("refusing the checkpoint allocated %d bytes", grew)
			}
		})
	}
}

// lastFrameAt returns the offset of the last frame of a framed file.
func lastFrameAt(t *testing.T, raw []byte) int {
	for off := 0; off+8 <= len(raw); {
		next := off + 8 + int(binary.BigEndian.Uint32(raw[off:]))
		if next == len(raw) {
			return off
		}
		off = next
	}
	t.Fatal("no last frame")
	return 0
}

// FuzzRecovery turns two byte strings into the snap.ckpt and wal.log of a
// fresh directory, each either raw or cut into CRC-valid frames of
// arbitrary payloads (a two-byte length, then the payload, repeated), so
// the record decoders are reached and not only the CRC check. OpenDurable
// must refuse the directory, or recover an engine whose indexes answer as
// a scan of its store does and which then closes; it never panics.
func FuzzRecovery(f *testing.F) {
	ckpt, log := recoverySeed(f)
	f.Add(ckpt, false, log, false)
	f.Add(chunks(f, ckpt), true, chunks(f, log), true)
	f.Add([]byte(nil), false, chunks(f, log), true)
	ps := model.Figure7Stats()
	vals := newDriver(ps.Path, 1).vals[:8]
	f.Fuzz(func(t *testing.T, ckpt []byte, ckptFramed bool, log []byte, logFramed bool) {
		dir := t.TempDir()
		for _, file := range []struct {
			name   string
			raw    []byte
			framed bool
		}{{snapName, ckpt, ckptFramed}, {walName, log, logFramed}} {
			if len(file.raw) == 0 {
				continue
			}
			if file.framed {
				file.raw = frames(file.raw)
			}
			if err := os.WriteFile(filepath.Join(dir, file.name), file.raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		e, err := OpenDurable(dir, ps.Path.Schema(), ps.Path, cfgSplit, 1024, DurableOptions{PoolPages: 8})
		if err != nil {
			return
		}
		assertIndexesConsistent(t, 0, e, vals)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// recoverySeed returns the checkpoint and the log (cut at its end) of a
// durable directory abandoned mid-workload.
func recoverySeed(f *testing.F) (ckpt, log []byte) {
	dir := filepath.Join(f.TempDir(), "db")
	ps := model.Figure7Stats()
	e, err := OpenDurable(dir, ps.Path.Schema(), ps.Path, cfgSplit, 1024, DurableOptions{CheckpointBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	defer e.Close()
	d := newDriver(e.Path(), 1)
	for i := 0; i < 24; i++ {
		if i == 16 {
			if err := e.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
		if err := d.step(e); err != nil {
			f.Fatal(err)
		}
	}
	if ckpt, err = os.ReadFile(filepath.Join(dir, snapName)); err != nil {
		f.Fatal(err)
	}
	if log, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
		f.Fatal(err)
	}
	return ckpt, log[:e.WALSize()]
}

// frames frames each chunk of b — a two-byte length, then up to that
// many payload bytes — with wal.AppendFrame.
func frames(b []byte) []byte {
	var out []byte
	for len(b) >= 2 {
		n := min(int(binary.BigEndian.Uint16(b)), len(b)-2)
		if n > 0 {
			out = wal.AppendFrame(out, b[2:2+n])
		}
		b = b[2+n:]
	}
	return out
}

// chunks is the inverse of frames over a framed file: its payloads, each
// behind a two-byte length.
func chunks(f *testing.F, raw []byte) []byte {
	var out []byte
	for off := 0; off < len(raw); {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if n >= 1<<16 {
			f.Fatalf("frame of %d bytes does not fit a chunk", n)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(n))
		out = append(out, raw[off+8:off+8+n]...)
		off += 8 + n
	}
	return out
}
