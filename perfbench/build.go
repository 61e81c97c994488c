package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// minBuilds is the fewest CLI builds a round times, however short its
// window.
const minBuilds = 2

// measureBuilds runs the workload's borges command back to back for
// the window and checks that every run produced the set-up artifact's
// content. cold_point runs it with default flags, so the in-process
// cache starts empty in each process; warm_mixed adds -cache-dir on
// the directory set-up filled.
//
// Every timed build writes a new file: the previous artifact is
// removed, and the removal synced, before the clock starts. On the
// ext4 (discard) disk this was built on, replacing an artifact instead
// added 0.4 to 0.9 s to a 1.3 s build, and from run to run that extra
// time spread by 0.3 to 0.4 of build_s's median, more than any bound
// build_s can have. The traced run times the replacement on its own,
// as snapbin.replace_ms.
func measureBuilds(ctx context.Context, cfg config, f *fixture, chk *checks, window time.Duration) ([]buildRun, error) {
	out := filepath.Join(f.dir, "build.snapbin")
	args := append(f.corpusArgs(), "-o", out)
	if cfg.warm {
		args = append(args, "-cache-dir", f.cacheDir)
	}
	var runs []buildRun
	deadline := time.Now().Add(window)
	for len(runs) < minBuilds || time.Now().Before(deadline) {
		if err := removeSynced(out); err != nil {
			return nil, err
		}
		r, err := runBorges(ctx, cfg.borges, args...)
		chk.expect(err == nil, "build: %v", err)
		if err != nil {
			return nil, err
		}
		chk.expect(r.hash == f.fullHash, "build content hash %s differs from set-up's %s", r.hash, f.fullHash)
		runs = append(runs, r)
	}
	return runs, nil
}

// removeSynced removes path if it exists and syncs its directory, so
// the file system has committed the removal before the next build.
func removeSynced(path string) error {
	if err := os.Remove(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// addBuildMetrics reports the median wall time and peak RSS of runs.
func addBuildMetrics(rep *report, runs []buildRun) {
	var wall, rss []float64
	for _, r := range runs {
		wall = append(wall, r.wall.Seconds())
		rss = append(rss, r.rssMB)
	}
	rep.add("build_s", "s", median(wall))
	rep.add("build_peak_rss_mb", "MB", median(rss))
	rep.note("builds timed", strconv.Itoa(len(runs)))
}
