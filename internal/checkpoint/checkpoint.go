// Package checkpoint is the simulator's one file container (DESIGN.md §16):
// checkpoints, the sweep book and compiled-fabric files are all versioned,
// checksummed files of named sections written and read through this package.
// It also persists full simulation state so a killed long run resumes
// bit-identically instead of replaying from t=0.
//
// Each layer of the simulator (sim engines, netsim, transport, metrics,
// harness, the fabric cache) encodes its own sections through the Writer and
// decodes them back through the File; this package owns only the container
// discipline:
//
//	0   magic (8 bytes; one per file kind, so kinds never load as each other)
//	8   u32 version, u32 section count
//	16  u64 payload length
//	24  u64 payload checksum (FNV-1a over bytes 40..EOF, padding included)
//	32  u64 header checksum (FNV-1a over bytes 0..32)
//	40  sections: { u32 nameLen, name, u32 bodyLen, zero pad to 8, body } ...
//
// Every body starts at an 8-byte-aligned file offset, so a mapped file can
// serve typed arrays straight out of its pages (byteview.Of). Files are
// written atomically (temp file + rename), so a crash mid-write leaves the
// previous file intact, and the staging files such a crash leaves behind are
// removed on a later Open. Parse validates magic, version, both checksums
// and every section bound before handing out a single byte; any mismatch is
// an error, and callers degrade a load error to a cold run rather than
// failing.
//
// What is deliberately NOT serialized in checkpoints: closures. Pending
// events are re-encoded as pure descriptors (sim.EventDesc) tagged with
// model-level kinds (the Kind* constants below); the restore side rebuilds
// the pre-bound closures from the reconstructed model and replays the
// descriptors in recorded order. See DESIGN.md §16 for the
// rebuild-closures-on-restore rule and the full inventory of what each
// section carries.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// Magic identifies checkpoint files and the sweep book.
const Magic = "UCMPCKP1"

const (
	version    = 2
	headerSize = 40

	// tempPrefix names the staging files Save creates next to their target;
	// staleTempAge is how old one must be before cleanup treats it as the
	// debris of a killed writer rather than a save in flight.
	tempPrefix   = ".ucmpckp-"
	staleTempAge = 10 * time.Minute
)

// Event-descriptor kinds: the model-level identity of a pending event's
// closure. A and B in the sim.EventTag are operands whose meaning the kind
// fixes (component ids); packet-carrying kinds serialize the packet next to
// the descriptor. Kind 0 is reserved for "untagged" — an event no layer
// claimed, which makes a snapshot refuse rather than guess.
const (
	// netsim
	KindBoundary    uint8 = 1 + iota // slice-boundary callback; A = domain
	KindFlush                        // ToR ingress flush; A = ToR
	KindPumpDown                     // ToR→host downlink pump; A = host
	KindPumpHost                     // host→ToR NIC pump; A = host
	KindDeliverHost                  // downlink delivery; A = host, +packet
	KindRecvHost                     // NIC arrival at ToR; A = ToR, +packet
	KindIngress                      // ToR↔ToR link arrival; A = dst ToR, +packet
	KindWakeUplink                   // uplink pump timer; A = ToR, B = uplink index

	// transport
	KindFlowStart // sender start; A = flow dense index
	KindRcvStart  // receiver start (NDP repair arm); A = flow dense index
	KindTCPRTO    // TCP/DCTCP retransmission timer; A = flow dense index
	KindNDPRepair // NDP idle-repair timer; A = flow dense index
	KindPacer     // NDP pull-pacer drain timer; A = host

	// metrics
	KindSample // serial sampling tick; A unused
)

// fnv64 is FNV-1a over b.
func fnv64(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Encoder appends primitive values to a section body. All integers are
// little-endian and fixed-width: simplicity and a stable format over
// compactness.
type Encoder struct {
	buf []byte
}

func (e *Encoder) U8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I32(v int32)  { e.U32(uint32(v)) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) {
	e.U64(math.Float64bits(v))
}
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Len encodes a collection length.
func (e *Encoder) Len(n int) { e.U32(uint32(n)) }

// Grow reserves room for n more bytes, so an encoder that knows its output
// size writes it without reallocating the buffer on the way.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Append lets an append-style encoder (func(dst) dst) write in place,
// without staging its output in a buffer of its own.
func (e *Encoder) Append(f func([]byte) []byte) { e.buf = f(e.buf) }

// align zero-pads to a multiple of n bytes from the start of the buffer.
func (e *Encoder) align(n int) {
	for len(e.buf)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// Decoder reads encoded bytes back with bounds checking. Errors are sticky:
// the first violation poisons the decoder, every later read returns zero
// values, and Err reports the failure — so decode walks read straight
// through and check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("decode at offset %d: "+format, append([]any{d.off}, args...)...)
	}
}

// Raw returns the next n bytes, aliasing the decoder's input.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf)-d.off {
		d.failf("%d bytes past the end of %d", n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	if b := d.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) I32() int32   { return int32(d.U32()) }
func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Decoder) Bool() bool   { return d.U8() != 0 }
func (d *Decoder) Str() string  { return string(d.Raw(d.Len())) }

// Count decodes a record count, rejecting counts whose records could not
// fit in the remaining bytes at minRec bytes each — a corrupted count then
// fails here instead of driving a giant allocation.
func (d *Decoder) Count(minRec int) int {
	n := d.U32()
	if uint64(n)*uint64(minRec) > uint64(len(d.buf)-d.off) {
		d.failf("count %d × %d bytes exceeds the %d left", n, minRec, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// Len decodes a collection length (Count with one byte per element).
func (d *Decoder) Len() int { return d.Count(1) }

// Align skips the zero padding up to a multiple of n bytes from the start of
// the decoder's input; nonzero padding is corruption.
func (d *Decoder) Align(n int) {
	for _, c := range d.Raw((n - d.off%n) % n) {
		if c != 0 {
			d.failf("nonzero padding")
		}
	}
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the first decode failure, or an error if input is left over.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.failf("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Writer assembles one file image. Sections are written one after another:
// Section ends the previous section, whose encoder must not be used again.
// Everything goes into a single buffer whose header is filled in last.
type Writer struct {
	magic  string
	img    Encoder
	names  []string
	bodyAt int // file offset of the open section's body
	lenAt  int // file offset of the open section's length field
}

// NewWriter returns an empty writer for a file of the given 8-byte magic.
func NewWriter(magic string) *Writer {
	if len(magic) != 8 {
		panic(fmt.Sprintf("checkpoint: magic %q is not 8 bytes", magic))
	}
	return &Writer{magic: magic, img: Encoder{buf: make([]byte, headerSize, 4096)}}
}

// Section returns the encoder for a new named section; asking again for the
// open section returns the same encoder.
func (w *Writer) Section(name string) *Encoder {
	for i, n := range w.names {
		if n == name {
			if i != len(w.names)-1 {
				panic(fmt.Sprintf("checkpoint: section %q reopened after %q", name, w.names[len(w.names)-1]))
			}
			return &w.img
		}
	}
	w.closeSection()
	w.names = append(w.names, name)
	w.img.Str(name)
	w.lenAt = len(w.img.buf)
	w.img.U32(0)
	w.img.align(8)
	w.bodyAt = len(w.img.buf)
	return &w.img
}

func (w *Writer) closeSection() {
	if len(w.names) > 0 {
		binary.LittleEndian.PutUint32(w.img.buf[w.lenAt:], uint32(len(w.img.buf)-w.bodyAt))
	}
}

// Encode completes and returns the file image, which shares the writer's
// buffer.
func (w *Writer) Encode() []byte {
	w.closeSection()
	b := w.img.buf
	copy(b, w.magic)
	binary.LittleEndian.PutUint32(b[8:], version)
	binary.LittleEndian.PutUint32(b[12:], uint32(len(w.names)))
	binary.LittleEndian.PutUint64(b[16:], uint64(len(b)-headerSize))
	binary.LittleEndian.PutUint64(b[24:], fnv64(b[headerSize:]))
	binary.LittleEndian.PutUint64(b[32:], fnv64(b[:32]))
	return b
}

// Save writes the file to path atomically; see WriteFile.
func (w *Writer) Save(path string) error { return WriteFile(path, w.Encode()) }

// WriteFile writes img to path atomically (temp file + rename), creating
// the directory if needed. A crash at any point leaves either the previous
// file or the new one, never a torn mix; a failed write removes its temp.
func WriteFile(path string, img []byte) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// cleanStaleTemps removes staging files a killed Save left in dir. It never
// touches a temp younger than staleTempAge — a concurrent Save may still be
// writing it — and ignores every failure: cleanup is hygiene, not
// correctness.
func cleanStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) >= staleTempAge {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// File is a loaded, fully validated container file. Section bodies alias
// its bytes, which may be a read-only mapping until Close.
type File struct {
	names    []string
	sections map[string][]byte
	data     []byte
	mapped   bool
}

// Load reads and validates a checkpoint or sweep-book file.
func Load(path string) (*File, error) { return Open(path, Magic, false) }

// Open reads a file of the given magic — mapping it read-only when mmap is
// set and the host allows — and validates it (Parse). It first removes stale
// staging files from the file's directory.
func Open(path, magic string, mmap bool) (*File, error) {
	cleanStaleTemps(filepath.Dir(path))
	var data []byte
	mapped := false
	if mmap {
		data, mapped = mapPath(path)
	}
	if !mapped {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	f, err := Parse(data, magic)
	if err != nil {
		if mapped {
			unmap(data)
		}
		return nil, err
	}
	f.data, f.mapped = data, mapped
	return f, nil
}

// Parse validates a file image of the given magic: magic, version, header
// and payload checksums, and every section bound. Any corruption — down to
// a single flipped byte anywhere in the image — is an error.
func Parse(data []byte, magic string) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("checkpoint: file is %d bytes, shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: magic %q, want %q", data[:8], magic)
	}
	h := NewDecoder(data[8:headerSize])
	ver, count, plen, psum, hsum := h.U32(), h.U32(), h.U64(), h.U64(), h.U64()
	switch {
	case hsum != fnv64(data[:32]):
		return nil, fmt.Errorf("checkpoint: header checksum mismatch")
	case ver != version:
		return nil, fmt.Errorf("checkpoint: file version %d, want %d", ver, version)
	case plen != uint64(len(data)-headerSize):
		return nil, fmt.Errorf("checkpoint: payload length %d, file has %d", plen, len(data)-headerSize)
	case psum != fnv64(data[headerSize:]):
		return nil, fmt.Errorf("checkpoint: payload checksum mismatch")
	}
	// The payload starts 8-aligned, so payload-relative alignment is
	// file-relative alignment.
	d := NewDecoder(data[headerSize:])
	f := &File{sections: make(map[string][]byte)}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		name := d.Str()
		n := d.Len()
		d.Align(8)
		if _, dup := f.sections[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		f.names = append(f.names, name)
		f.sections[name] = d.Raw(n)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("checkpoint: section table: %w", err)
	}
	return f, nil
}

// Body returns a named section's bytes, or an error if the file does not
// carry it.
func (f *File) Body(name string) ([]byte, error) {
	b, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing section %q", name)
	}
	return b, nil
}

// Section returns a decoder over a named section.
func (f *File) Section(name string) (*Decoder, error) {
	b, err := f.Body(name)
	if err != nil {
		return nil, err
	}
	return NewDecoder(b), nil
}

// Names lists the sections in file order; the slice is the file's own.
func (f *File) Names() []string { return f.names }

// Close releases a mapping; section bodies must not be used afterwards.
func (f *File) Close() error {
	data, mapped := f.data, f.mapped
	f.names, f.sections, f.data, f.mapped = nil, nil, nil, false
	if mapped {
		return unmap(data)
	}
	return nil
}

// FileName returns the checkpoint file path for a config key inside dir:
// one file per distinct configuration, overwritten at each checkpoint
// instant, so concurrent trials of a sweep never fight over a name.
func FileName(dir, configKey string) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ucmpckp", fnv64([]byte(configKey))))
}
