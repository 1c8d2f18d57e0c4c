package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"ucmp/internal/metrics"
	"ucmp/internal/netsim"
)

// digest hashes a run's model outputs: the fabric counters and, per flow in
// ID order, the bytes delivered, the finished flag and the finish time.
// Engine internals (event and scheduler counts) are left out, so a change
// that schedules the same model with fewer events keeps the digest.
func digest(c netsim.Counters, flows []*netsim.Flow) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	sorted := append([]*netsim.Flow(nil), flows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var b [25]byte
	for _, f := range sorted {
		binary.LittleEndian.PutUint64(b[0:], uint64(f.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(f.BytesDelivered))
		binary.LittleEndian.PutUint64(b[16:], uint64(f.FinishedAt))
		b[24] = 0
		if f.Finished {
			b[24] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// checkRun verifies one run's outputs and returns the first violation, or
// nil. inFlight is the run's undelivered data packets at its end (parked or
// on a wire), or -1 when the network is not at hand (runs through
// harness.Run); then only the weak form of the conservation ledger (nothing
// ended that was not injected) can be checked.
func checkRun(c netsim.Counters, flows []*netsim.Flow, col *metrics.Collector, inFlight int64) error {
	ended := c.DataDelivered + c.TrimmedDelivered + c.DataDropped
	if inFlight >= 0 && c.DataInjected != ended+inFlight {
		return fmt.Errorf("conservation ledger: injected %d != delivered %d + trimmed %d + dropped %d + in flight %d",
			c.DataInjected, c.DataDelivered, c.TrimmedDelivered, c.DataDropped, inFlight)
	}
	if c.DataInjected < ended {
		return fmt.Errorf("conservation ledger: injected %d < delivered %d + trimmed %d + dropped %d",
			c.DataInjected, c.DataDelivered, c.TrimmedDelivered, c.DataDropped)
	}
	finished := 0
	for _, f := range flows {
		if f.BytesDelivered > f.Size {
			return fmt.Errorf("flow %d: delivered %d bytes of %d", f.ID, f.BytesDelivered, f.Size)
		}
		if !f.Finished {
			continue
		}
		if f.BytesDelivered != f.Size || f.FinishedAt < f.Arrival {
			return fmt.Errorf("flow %d finished with %d of %d bytes at %v (arrived %v)",
				f.ID, f.BytesDelivered, f.Size, f.FinishedAt, f.Arrival)
		}
		if !f.Child {
			finished++
		}
	}
	if finished != len(col.Flows) {
		return fmt.Errorf("collector recorded %d completions, flows report %d", len(col.Flows), finished)
	}
	return nil
}

// recordUCMP adds a UCMP run's flow outcomes to the iteration's
// simulated-time metrics.
func (c *iterCtx) recordUCMP(col *metrics.Collector, launched int) {
	c.res.UCMPLaunched += launched
	c.res.UCMPCompleted += len(col.Flows)
	for _, fr := range col.Flows {
		if fr.Size <= shortFlowBytes {
			c.res.ShortFCTUs = append(c.res.ShortFCTUs, fr.FCT.Micros())
		}
	}
}

// shortFlowBytes is the largest flow the short-flow FCT metrics count.
const shortFlowBytes = 100 << 10
