package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
)

// TestTraceLogGolden pins the "trace" event lines -tracelog prints, in
// order, for a scripted run through Context.GPU over one store: a
// capture, a replay, the trace's and the Stats' diskput lines, a memo
// hit (which prints nothing), and a fresh Context that serves Stats from
// disk (diskhit) and replays a trace it loads from disk (diskload).
func TestTraceLogGolden(t *testing.T) {
	bfs, _ := kernels.ByAbbrev("BFS")
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		lines []string
	)
	context := func() *Context {
		ctx, _ := storeContext(t, dir)
		ctx.Replay = true
		ctx.Check = false
		ctx.Size = sizes.Test
		ctx.Obs = obs.New()
		ctx.Obs.OnEvent("trace", func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		})
		return ctx
	}
	gpu := func(ctx *Context, b *kernels.Benchmark, cfg gpusim.Config) {
		t.Helper()
		if _, err := ctx.GPU(b, cfg); err != nil {
			t.Fatalf("%s on %s: %v", b.Abbrev, cfg.Name, err)
		}
	}

	cold := context()
	gpu(cold, bfs, gpusim.Base8SM())
	gpu(cold, bfs, gpusim.GTX280())
	gpu(cold, bfs, gpusim.Base8SM())
	warm := context()
	gpu(warm, bfs, gpusim.Base8SM())
	gpu(warm, bfs, gpusim.Base())

	_, rt, err := core.CaptureGPUAt(bfs, sizes.Test, gpusim.Base8SM(), false)
	if err != nil {
		t.Fatal(err)
	}
	n, size := rt.NumLaunches(), rt.Bytes()
	want := []string{
		"capture  BFS@test on gpgpusim-8sm",
		fmt.Sprintf("diskput  BFS@test trace (%d launches, %d bytes)", n, size),
		"diskput  BFS@test on gpgpusim-8sm (stats)",
		fmt.Sprintf("replay   BFS@test on gtx280 (%d launches)", n),
		"diskput  BFS@test on gtx280 (stats)",
		"diskhit  BFS@test on gpgpusim-8sm (stats)",
		fmt.Sprintf("diskload BFS@test (%d launches, %d bytes)", n, size),
		fmt.Sprintf("replay   BFS@test on gpgpusim-28sm (%d launches)", n),
		"diskput  BFS@test on gpgpusim-28sm (stats)",
	}
	if got, exp := strings.Join(lines, "\n"), strings.Join(want, "\n"); got != exp {
		t.Fatalf("trace log:\n%s\n\nwant:\n%s", got, exp)
	}
}
