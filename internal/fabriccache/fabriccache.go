// Package fabriccache persists compiled fabrics — the symmetric PathSet's
// canonical spine + interned group store and ToR 0's CompiledTable — in a
// versioned binary file served back via mmap (DESIGN.md §15). A 1024-ToR
// fabric that costs ~39 s to build cold loads warm in well under a second,
// and multiple processes loading the same file share one copy of the hot
// arrays through the page cache.
//
// The file is a checkpoint container (DESIGN.md §16) under its own magic,
// "UCMPFAB1", with four sections:
//
//	meta   u64 schedule fingerprint (topo.Schedule.Fingerprint); float64
//	       α, link rate and slice length; u32 maxParallel, n, d, s
//	spine  the canonical spine (core.EncodeCanonical)
//	store  the interned canonical group store (core.EncodeCanonical)
//	table  ToR 0's packed table (routing.CompiledTable.AppendPacked)
//
// The container places every body at an 8-byte-aligned file offset, so the
// spine and the table's arrays alias the mapping.
//
// Identity, not freshness: the meta section pins everything the compiled content
// depends on — the schedule's structural fingerprint and the cost-model
// parameters — so a stale or foreign file is rejected with an error and can
// never silently serve a different fabric. Cache file NAMES also embed the
// fingerprint (FileName), so rebuilding a changed fabric writes a new file
// instead of fighting over one.
//
// Ownership: Load returns a Fabric handle owning the underlying mapping.
// The PathSet spine and all four CompiledTable arrays may alias it, so the
// handle must outlive every use of PS and Table; Close unmaps and
// invalidates both. Long-lived caches (harness) simply never Close —
// read-only mappings cost address space, not dirty pages.
package fabriccache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

const magic = "UCMPFAB1"

// Params are the build parameters baked into a compiled fabric beyond the
// schedule itself.
type Params struct {
	// Alpha is the §5.2 cost-model weight factor the path set was built with.
	Alpha float64
	// MaxParallel caps tied parallel solutions per hop count; <= 0 means the
	// calculator default.
	MaxParallel int
}

// effMaxParallel normalizes the cap the way core.NewCalculator applies it,
// so 0 and the explicit default address the same file.
func effMaxParallel(mp int) int {
	if mp <= 0 {
		return core.DefaultMaxParallel
	}
	return mp
}

// Fabric is a warm compiled fabric loaded from a cache file. PS and Table
// may alias the underlying file mapping; see the package comment for the
// lifetime rule.
type Fabric struct {
	PS    *core.PathSet
	Table *routing.CompiledTable // ToR 0's table; other ToRs compile lazily

	file *checkpoint.File
}

// Close releases the file mapping. PS and Table must not be used afterward.
func (f *Fabric) Close() error {
	file := f.file
	f.PS, f.Table, f.file = nil, nil, nil
	if file != nil {
		return file.Close()
	}
	return nil
}

// FileName returns the cache file name for a fabric + params combination
// inside dir. The name embeds a digest of the schedule fingerprint, fabric
// configuration and build parameters, so distinct fabrics get distinct
// files and a changed fabric is a cache miss by name.
func FileName(dir string, f *topo.Fabric, p Params) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, []uint64{
		f.Sched.Fingerprint(),
		math.Float64bits(p.Alpha),
		math.Float64bits(float64(f.LinkBps)),
		math.Float64bits(f.SliceDuration.Micros()),
		uint64(effMaxParallel(p.MaxParallel)),
		uint64(f.NumToRs),
		uint64(f.Uplinks),
	})
	return filepath.Join(dir, fmt.Sprintf("fabric-%016x.ucmpfab", h.Sum64()))
}

// Encode assembles the complete file image for a compiled fabric. The path
// set must be a symmetric build (the canonical form is the only one worth
// persisting — brute spines are O(S·N²)) and the table must be ToR 0's.
func Encode(ps *core.PathSet, table *routing.CompiledTable) ([]byte, error) {
	if table.Tor != 0 {
		return nil, fmt.Errorf("fabriccache: table is for ToR %d, want 0", table.Tor)
	}
	w := checkpoint.NewWriter(magic)
	m := w.Section("meta")
	m.U64(ps.F.Sched.Fingerprint())
	m.F64(ps.Model.Alpha)
	m.F64(ps.Model.LinkBps)
	m.F64(ps.Model.SliceMicros)
	for _, v := range []int{ps.Calc.MaxParallel, ps.F.NumToRs, ps.F.Uplinks, ps.F.Sched.S} {
		m.U32(uint32(v))
	}
	if err := ps.EncodeCanonical(w); err != nil {
		return nil, err
	}
	w.Section("table").Append(table.AppendPacked)
	return w.Encode(), nil
}

// Save writes the compiled fabric to path atomically (temp file + rename),
// creating the directory if needed.
func Save(path string, ps *core.PathSet, table *routing.CompiledTable) error {
	img, err := Encode(ps, table)
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, img)
}

// Options tunes Load.
type Options struct {
	// NoAlias forces copying decodes: PS and Table own their arrays and the
	// mapping is released before Load returns. Slower and bigger, but the
	// result outlives the handle — and it is the differential path that
	// keeps the copying decoder honest in tests.
	NoAlias bool
	// NoMmap reads the file into memory instead of mapping it (aliasing
	// still applies to the heap copy). Mostly for tests.
	NoMmap bool
}

// Load maps (or reads) a compiled-fabric file and rebuilds the warm PathSet
// and ToR-0 table for the given fabric. Every mismatch — magic, version,
// checksums, schedule fingerprint, cost-model params, dimensions, any
// structural defect in the payload — is an error and never a partial or
// wrong fabric. The caller owns the returned handle (see package comment).
func Load(path string, fab *topo.Fabric, p Params, opt Options) (*Fabric, error) {
	file, err := checkpoint.Open(path, magic, !opt.NoMmap)
	if err != nil {
		return nil, fmt.Errorf("fabriccache: %w", err)
	}
	ld, err := build(file, fab, p, opt)
	if err != nil || opt.NoAlias {
		// Nothing references the file image; drop it eagerly.
		file.Close()
		return ld, err
	}
	ld.file = file
	return ld, nil
}

// build checks the meta section against the expected fabric and params and
// decodes the other three sections.
func build(file *checkpoint.File, fab *topo.Fabric, p Params, opt Options) (*Fabric, error) {
	m, err := file.Section("meta")
	if err != nil {
		return nil, fmt.Errorf("fabriccache: %w", err)
	}
	fp, alpha, link, slice := m.U64(), m.U64(), m.U64(), m.U64()
	mp, n, d, s := int(m.U32()), int(m.U32()), int(m.U32()), int(m.U32())
	switch {
	case m.Done() != nil:
		return nil, fmt.Errorf("fabriccache: meta: %w", m.Err())
	case fp != fab.Sched.Fingerprint():
		return nil, fmt.Errorf("fabriccache: schedule fingerprint %016x, want %016x — file is for a different fabric", fp, fab.Sched.Fingerprint())
	case alpha != math.Float64bits(p.Alpha):
		return nil, fmt.Errorf("fabriccache: alpha %v, want %v", math.Float64frombits(alpha), p.Alpha)
	case link != math.Float64bits(float64(fab.LinkBps)):
		return nil, fmt.Errorf("fabriccache: link rate differs")
	case slice != math.Float64bits(fab.SliceDuration.Micros()):
		return nil, fmt.Errorf("fabriccache: slice duration differs")
	case mp != effMaxParallel(p.MaxParallel):
		return nil, fmt.Errorf("fabriccache: maxParallel %d, want %d", mp, effMaxParallel(p.MaxParallel))
	case n != fab.NumToRs || d != fab.Uplinks || s != fab.Sched.S:
		return nil, fmt.Errorf("fabriccache: (n, d, s) = (%d, %d, %d), want (%d, %d, %d)", n, d, s, fab.NumToRs, fab.Uplinks, fab.Sched.S)
	}
	var blobs [3][]byte
	for i, name := range []string{"spine", "store", "table"} {
		if blobs[i], err = file.Body(name); err != nil {
			return nil, fmt.Errorf("fabriccache: %w", err)
		}
	}
	ps, err := core.DecodeCanonical(fab, p.Alpha, p.MaxParallel, blobs[0], blobs[1],
		core.DecodeOptions{NoAlias: opt.NoAlias})
	if err != nil {
		return nil, err
	}
	table, err := routing.DecodePacked(blobs[2], routing.DecodeOptions{NoAlias: opt.NoAlias})
	if err != nil {
		return nil, err
	}
	if table.Tor != 0 {
		return nil, fmt.Errorf("fabriccache: table is for ToR %d, want 0", table.Tor)
	}
	if err := table.Validate(ps); err != nil {
		return nil, err
	}
	return &Fabric{PS: ps, Table: table}, nil
}
