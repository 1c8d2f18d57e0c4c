package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/harness"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// seedImages writes one file of each kind the simulator keeps — a
// checkpoint, a sweep book and a compiled-fabric file — and returns their
// images.
func seedImages(tb testing.TB) map[string][]byte {
	dir := tb.TempDir()
	cfg := harness.ScaledConfig(harness.UCMP, transport.DCTCP, "websearch")
	cfg.Duration = 300 * sim.Microsecond
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 200 * sim.Microsecond
	if _, err := harness.RunTrials([]harness.Trial{{Name: "seed", Cfg: cfg}}); err != nil {
		tb.Fatal(err)
	}
	tc := topo.Scaled()
	tc.NumToRs, tc.Uplinks = 8, 4
	fab := topo.MustFabric(tc, "round-robin", 1)
	ps := core.BuildPathSet(fab, 0.5)
	table := routing.CompileTable(ps, core.NewFlowAger(ps), 0)
	params := fabriccache.Params{Alpha: 0.5}
	if err := fabriccache.Save(fabriccache.FileName(dir, fab, params), ps, table); err != nil {
		tb.Fatal(err)
	}
	imgs := make(map[string][]byte)
	for _, ext := range []string{".ucmpckp", ".ucmpswp", ".ucmpfab"} {
		paths, _ := filepath.Glob(filepath.Join(dir, "*"+ext))
		if len(paths) != 1 {
			tb.Fatalf("want one %s file, found %v", ext, paths)
		}
		img, err := os.ReadFile(paths[0])
		if err != nil {
			tb.Fatal(err)
		}
		imgs[ext] = img
	}
	return imgs
}

// FuzzContainer: no image panics Parse, and any image it accepts is
// reproduced byte for byte by writing its sections back in file order.
func FuzzContainer(f *testing.F) {
	for _, img := range seedImages(f) {
		f.Add(img)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		magic := checkpoint.Magic
		if len(img) >= 8 {
			magic = string(img[:8])
		}
		file, err := checkpoint.Parse(img, magic)
		if err != nil {
			return
		}
		w := checkpoint.NewWriter(magic)
		for _, name := range file.Names() {
			body, err := file.Body(name)
			if err != nil {
				t.Fatal(err)
			}
			w.Section(name).Append(func(b []byte) []byte { return append(b, body...) })
		}
		if !bytes.Equal(w.Encode(), img) {
			t.Fatal("accepted image does not re-encode identically")
		}
	})
}
