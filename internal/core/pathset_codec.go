package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ucmp/internal/byteview"
	"ucmp/internal/checkpoint"
	"ucmp/internal/topo"
)

// Canonical path-set codec (DESIGN.md §15). A symmetric PathSet is two
// blobs:
//
//   - the spine: the raw little-endian []int32 canonIdx array (S·N entries,
//     -1 at Δ = 0), aliasable straight out of an mmap'd region;
//   - the store: the interned t_start-relative canonical groups as a stream
//     of u32 records — per group dst and entry count, per entry hop count,
//     latency and path count, per path its hop count, per hop (to, rel).
//
// Hulls and thresholds are NOT serialized: they are deterministic, α-free
// functions of the entries (BuildBuckets), so the decoder recomputes them —
// the file stays smaller and can never disagree with the cost model it is
// loaded under. Decoded groups live in a fresh group arena; only the spine
// aliases the blob.

// DecodeOptions tunes DecodeCanonical.
type DecodeOptions struct {
	// NoAlias forces the copying decode of the spine even where aliasing
	// would be legal — the differential path for testing, and an escape
	// hatch for callers that must outlive the blob's backing memory.
	NoAlias bool
}

// EncodeCanonical writes a symmetric PathSet into w as two sections,
// "spine" and "store". Errors on brute-force builds, which have no canonical
// form (and would not round-trip at O(S·N)).
func (ps *PathSet) EncodeCanonical(w *checkpoint.Writer) error {
	if !ps.sym {
		return fmt.Errorf("core: cannot encode a non-symmetric path set")
	}
	// Reserve both sections up front so a large image is not reallocated
	// and copied as it grows: the spine, the store's section header and
	// group count, then the store's records.
	size := 4*len(ps.canonIdx) + 32
	for _, g := range ps.interned {
		size += 8
		for _, en := range g.Entries {
			size += 12
			for _, p := range en.Paths {
				size += 4 + 8*len(p.Hops)
			}
		}
	}
	e := w.Section("spine")
	e.Grow(size)
	for _, idx := range ps.canonIdx {
		e.I32(idx)
	}
	e = w.Section("store")
	e.Len(len(ps.interned))
	for _, g := range ps.interned {
		e.U32(uint32(g.Dst))
		e.Len(len(g.Entries))
		for _, en := range g.Entries {
			if en.LatencySlices < 0 || en.LatencySlices > math.MaxUint32 {
				return fmt.Errorf("core: canonical latency %d outside codec range", en.LatencySlices)
			}
			e.U32(uint32(en.HopCount))
			e.U32(uint32(en.LatencySlices))
			e.Len(len(en.Paths))
			for _, p := range en.Paths {
				e.Len(len(p.Hops))
				for _, hp := range p.Hops {
					if hp.Slice < 0 || hp.Slice > math.MaxUint32 {
						return fmt.Errorf("core: canonical hop slice %d outside codec range", hp.Slice)
					}
					e.U32(uint32(hp.To))
					e.U32(uint32(hp.Slice))
				}
			}
		}
	}
	return nil
}

// DecodeCanonical rebuilds a symmetric PathSet from its codec blobs for the
// given fabric and cost-model parameters. The calculator is rederived from
// the fabric (cheap — the DP itself is what the file persists), the spine
// aliases spineBlob where possible, the interned groups are decoded into a
// fresh arena, and every hull/threshold is recomputed via BuildBuckets.
// Every decoded group is validated; any structural violation is an error.
func DecodeCanonical(f *topo.Fabric, alpha float64, maxParallel int, spineBlob, storeBlob []byte, opt DecodeOptions) (*PathSet, error) {
	if !f.Sched.Rotation() {
		return nil, fmt.Errorf("core: cannot decode a canonical path set for a non-symmetric schedule")
	}
	calc := NewCalculator(f)
	if maxParallel > 0 {
		calc.MaxParallel = maxParallel
	}
	ps := &PathSet{
		F:    f,
		Calc: calc,
		Model: CostModel{
			Alpha:       alpha,
			LinkBps:     float64(f.LinkBps),
			SliceMicros: f.SliceDuration.Micros(),
		},
		sym: true,
	}
	n, s := f.Sched.N, f.Sched.S
	if len(spineBlob) != 4*s*n {
		return nil, fmt.Errorf("core: spine blob is %d bytes, want %d", len(spineBlob), 4*s*n)
	}
	if !opt.NoAlias {
		ps.canonIdx, _ = byteview.Of[int32](spineBlob, s*n)
	}
	if ps.canonIdx == nil {
		ps.canonIdx = make([]int32, s*n)
		for i := range ps.canonIdx {
			ps.canonIdx[i] = int32(binary.LittleEndian.Uint32(spineBlob[4*i:]))
		}
	}

	// Minimum record sizes bound every count against the bytes left: a
	// group is at least dst+count, an entry hopCount+latency+count, a path
	// its hop count, a hop (to, rel).
	d := checkpoint.NewDecoder(storeBlob)
	nGroups := d.Count(8)
	arena := newScaledArena(nGroups + 1)
	ps.interned = make([]*Group, 0, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		dst := int(d.I32())
		if d.Err() == nil && (dst < 1 || dst >= n) {
			return nil, fmt.Errorf("core: group %d dst %d outside [1,%d)", gi, dst, n)
		}
		g := arena.groups.one()
		g.Src, g.Dst, g.StartSlice = 0, dst, 0
		g.Entries = arena.entries.take(d.Count(12))
		for ei := range g.Entries {
			hopCount, lat := int(d.I32()), int64(d.U32())
			paths := arena.ptrs.take(d.Count(4))
			for pi := range paths {
				p := arena.paths.one()
				p.Src, p.Dst, p.StartSlice = 0, dst, 0
				p.Hops = arena.hops.take(d.Count(8))
				for hi := range p.Hops {
					to, rel := int(d.I32()), d.I32()
					if to < 0 || to >= n || rel < 0 {
						return nil, fmt.Errorf("core: group %d hop (%d,%d) out of range", gi, to, rel)
					}
					p.Hops[hi] = Hop{To: to, Slice: int64(rel)}
				}
				paths[pi] = p
			}
			g.Entries[ei] = Entry{HopCount: hopCount, LatencySlices: lat, Paths: paths}
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: group store: %w", err)
		}
		g.hull = arena.ints.take(len(g.Entries))[:0]
		if len(g.Entries) > 1 {
			g.thrFree = arena.floats.take(len(g.Entries) - 1)[:0]
		}
		g.BuildBuckets(ps.Model)
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("core: decoded group %d invalid: %w", gi, err)
		}
		ps.interned = append(ps.interned, g)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: group store: %w", err)
	}

	// Spine sanity: Δ = 0 is -1, everything else points into the store.
	for ts := 0; ts < s; ts++ {
		for delta := 0; delta < n; delta++ {
			idx := ps.canonIdx[ts*n+delta]
			if delta == 0 {
				if idx != -1 {
					return nil, fmt.Errorf("core: spine (%d,0) = %d, want -1", ts, idx)
				}
			} else if idx < 0 || int(idx) >= len(ps.interned) {
				return nil, fmt.Errorf("core: spine (%d,%d) = %d outside store of %d", ts, delta, idx, len(ps.interned))
			}
		}
	}
	return ps, nil
}
