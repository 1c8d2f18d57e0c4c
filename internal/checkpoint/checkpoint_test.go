package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// Round trip of every primitive through a saved-and-loaded file.
func TestRoundTrip(t *testing.T) {
	w := NewWriter(Magic)
	a := w.Section("alpha")
	a.U8(7)
	a.U32(0xdeadbeef)
	a.U64(1 << 60)
	a.I32(-12345)
	a.I64(math.MinInt64)
	a.F64(3.14159)
	a.F64(math.Inf(-1))
	a.Bool(true)
	a.Bool(false)
	a.Str("hello, checkpoint")
	a.Str("")
	a.Len(3)
	for i := 0; i < 3; i++ {
		a.U8(uint8(10 + i))
	}
	// Re-requesting the open section appends to the same encoder.
	w.Section("alpha").U8(99)
	b := w.Section("beta")
	b.U64(42)

	path := filepath.Join(t.TempDir(), "x.ucmpckp")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U8(); v != 7 {
		t.Fatalf("U8: %d", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32: %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64: %d", v)
	}
	if v := d.I32(); v != -12345 {
		t.Fatalf("I32: %d", v)
	}
	if v := d.I64(); v != math.MinInt64 {
		t.Fatalf("I64: %d", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Fatalf("F64: %v", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64 inf: %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := d.Str(); v != "hello, checkpoint" {
		t.Fatalf("Str: %q", v)
	}
	if v := d.Str(); v != "" {
		t.Fatalf("empty Str: %q", v)
	}
	if v := d.Len(); v != 3 {
		t.Fatalf("Len: %d", v)
	}
	for i := 0; i < 3; i++ {
		if v := d.U8(); v != uint8(10+i) {
			t.Fatalf("element %d: %d", i, v)
		}
	}
	if v := d.U8(); v != 99 {
		t.Fatalf("appended U8: %d", v)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	db, err := f.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	if v := db.U64(); v != 42 || db.Err() != nil {
		t.Fatalf("beta: %d, %v", v, db.Err())
	}
	if _, err := f.Section("gamma"); err == nil {
		t.Fatal("missing section not reported")
	}
}

// Decoder errors are sticky: reading past the end poisons the decoder and
// every later read returns zero values instead of panicking.
func TestDecoderSticky(t *testing.T) {
	d := &Decoder{buf: []byte{1, 2}}
	if v := d.U8(); v != 1 {
		t.Fatalf("U8: %d", v)
	}
	if v := d.U64(); v != 0 || d.Err() == nil {
		t.Fatalf("overread did not poison: %d, %v", v, d.Err())
	}
	if v := d.U8(); v != 0 {
		t.Fatalf("poisoned decoder produced a value: %d", v)
	}
}

// A corrupted length prefix fails the decode instead of driving a giant
// allocation: Len and Str both reject counts exceeding the remaining bytes.
func TestLenBounds(t *testing.T) {
	e := &Encoder{}
	e.U32(math.MaxUint32)
	d := &Decoder{buf: e.buf}
	if n := d.Len(); n != 0 || d.Err() == nil {
		t.Fatalf("oversized Len accepted: %d, %v", n, d.Err())
	}
	d = &Decoder{buf: e.buf}
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Fatalf("oversized Str accepted: %q, %v", s, d.Err())
	}
}

// Every single-byte corruption anywhere in the file — header, section
// table, body, checksums — must be rejected by Load.
func TestLoadRejectsEveryFlip(t *testing.T) {
	w := NewWriter(Magic)
	s := w.Section("state")
	for i := 0; i < 8; i++ {
		s.U64(uint64(i) * 0x0101010101010101)
	}
	s.Str("payload")
	w.Section("more").Bool(true)
	path := filepath.Join(t.TempDir(), "x.ucmpckp")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	for off := range orig {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		}
	}
	// Truncations at every length, including inside the header.
	for n := 0; n < len(orig); n += 7 {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// FileName is deterministic per key, distinct across keys, and stays inside
// the directory.
func TestFileName(t *testing.T) {
	a := FileName("dir", "key-a")
	b := FileName("dir", "key-b")
	if a == b {
		t.Fatal("distinct keys share a file name")
	}
	if a != FileName("dir", "key-a") {
		t.Fatal("file name not deterministic")
	}
	if filepath.Dir(a) != "dir" || !strings.HasSuffix(a, ".ucmpckp") {
		t.Fatalf("unexpected shape: %q", a)
	}
}

// TestStaleTempCleanup: staging files a killed Save left in a checkpoint
// directory are removed by the next Load there; fresh ones (a Save possibly
// in flight) and the checkpoint itself are left alone.
func TestStaleTempCleanup(t *testing.T) {
	dir := t.TempDir()
	path := FileName(dir, "key")
	w := NewWriter(Magic)
	w.Section("state").U64(7)
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, tempPrefix+"stale123")
	fresh := filepath.Join(dir, tempPrefix+"fresh456")
	for _, f := range []string{stale, fresh} {
		if err := os.WriteFile(f, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Load: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp was removed: %v", err)
	}
}

// TestSectionsAligned: every section body starts at an 8-byte-aligned file
// offset, whatever the name and body lengths before it.
func TestSectionsAligned(t *testing.T) {
	w := NewWriter(Magic)
	for i, name := range []string{"a", "bcdefgh", "ijklmnopq", ""} {
		e := w.Section(name)
		for j := 0; j < 3*i+1; j++ {
			e.U8(uint8(j))
		}
	}
	img := w.Encode()
	f, err := Parse(img, Magic)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range f.Names() {
		b, _ := f.Body(name)
		off := uintptr(unsafe.Pointer(unsafe.SliceData(b))) - uintptr(unsafe.Pointer(unsafe.SliceData(img)))
		if len(b) > 0 && off%8 != 0 {
			t.Fatalf("section %q body at offset %d", name, off)
		}
	}
}
