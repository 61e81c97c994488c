package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
	"unicode"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/synth"
)

// fixture is everything set-up prepares for one workload run.
type fixture struct {
	dir                 string
	as2org, pdb, web    string // the on-disk corpus
	full, reduced       string // snapbin artifacts built by the CLI
	fullHash            string
	reducedHash         string
	fullSnap, redSnap   *serve.Snapshot
	deltaPath           string // the file borgesd -delta-in reads
	toReduced, toFull   []byte // delta files, in mapdiff's wire form
	toReducedD, toFullD *mapdiff.Delta
	cacheDir            string      // warm_mixed: the disk cache the set-up build filled
	keys                []asnum.ASN // Zipf-distributed point lookups
	bulkKeys            []asnum.ASN // every mapped ASN once, for bulk streams
	tokens              []string
}

// corpusArgs are the borges flags that read the on-disk corpus and
// write a binary serving artifact.
func (f *fixture) corpusArgs() []string {
	return []string{"-as2org", f.as2org, "-peeringdb", f.pdb, "-web", f.web, "-format", "binary"}
}

// reducedFeatures is the feature set of the second mapping the delta
// reloads alternate to: favicon classification off. At seed 1 the
// delta from the full mapping removes 325 clusters and adds 387.
const reducedFeatures = "oidp,na,rr"

// paperTable6 is the full configuration's row of EXPERIMENTS.md
// Table 6 at seed 1, scale 1.0.
var paperTable6 = struct {
	theta      float64
	orgs, asns int
}{0.3554, 93516, 117431}

// setUp writes the corpus, builds the full and reduced artifacts with
// the CLI, and derives the deltas and request inputs. For warm_mixed
// the full build also fills the disk cache the measured builds read.
func setUp(ctx context.Context, cfg config, dir string, chk *checks) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	corpus := filepath.Join(dir, "corpus")
	if _, err := synth.WriteCorpusStream(corpus, synth.Config{Seed: cfg.seed, Scale: cfg.scale}, 2048); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	f := &fixture{
		dir:       dir,
		as2org:    filepath.Join(corpus, "as2org.jsonl"),
		pdb:       filepath.Join(corpus, "peeringdb.json"),
		web:       filepath.Join(corpus, "web.jsonl"),
		full:      filepath.Join(dir, "full.snapbin"),
		reduced:   filepath.Join(dir, "reduced.snapbin"),
		deltaPath: filepath.Join(dir, "delta.jsonl"),
	}
	args := append(f.corpusArgs(), "-o", f.full)
	if cfg.warm {
		f.cacheDir = filepath.Join(dir, "cache")
		args = append(args, "-cache-dir", f.cacheDir)
	}
	full, err := runBorges(ctx, cfg.borges, args...)
	if err != nil {
		return nil, err
	}
	red, err := runBorges(ctx, cfg.borges, append(f.corpusArgs(), "-features", reducedFeatures, "-o", f.reduced)...)
	if err != nil {
		return nil, err
	}
	f.fullHash, f.reducedHash = full.hash, red.hash
	if cfg.seed == 1 && cfg.scale == 1 {
		b := full
		chk.expect(b.orgs == paperTable6.orgs && b.asns == paperTable6.asns && math.Abs(b.theta-paperTable6.theta) < 5e-5,
			"seed 1 scale 1.0 mapped %d networks into %d organizations (θ = %.4f); Table 6 says %d into %d (θ = %.4f)",
			b.asns, b.orgs, b.theta, paperTable6.asns, paperTable6.orgs, paperTable6.theta)
	}

	if f.fullSnap, err = serve.LoadSnapshotFile(f.full); err != nil {
		return nil, err
	}
	if f.redSnap, err = serve.LoadSnapshotFile(f.reduced); err != nil {
		return nil, err
	}
	chk.expect(f.fullSnap.ContentHash() == f.fullHash, "full artifact hash %s, CLI printed %s", f.fullSnap.ContentHash(), f.fullHash)
	chk.expect(f.redSnap.ContentHash() == f.reducedHash, "reduced artifact hash %s, CLI printed %s", f.redSnap.ContentHash(), f.reducedHash)
	chk.expect(f.fullHash != f.reducedHash, "full and reduced mappings have the same content hash")

	f.toReducedD = mapdiff.ComputeDelta(f.fullSnap.Mapping(), f.redSnap.Mapping())
	f.toFullD = mapdiff.ComputeDelta(f.redSnap.Mapping(), f.fullSnap.Mapping())
	for _, d := range []struct {
		delta *mapdiff.Delta
		dst   *[]byte
	}{{f.toReducedD, &f.toReduced}, {f.toFullD, &f.toFull}} {
		var buf bytes.Buffer
		if err := mapdiff.WriteDelta(&buf, d.delta); err != nil {
			return nil, err
		}
		*d.dst = buf.Bytes()
	}

	asns, _ := f.fullSnap.Mapping().RawIndex()
	f.keys = zipfKeys(asns, cfg.mix.zipfS, cfg.seed, 1<<20)
	f.bulkKeys = distinctKeys(asns, cfg.seed)
	f.tokens = nameTokens(f.fullSnap, cfg.seed, 4096)
	return f, nil
}

// setUpRepeated runs set-up reps times and keeps the last fixture, so
// set-up time is a median rather than one noisy sample. Earlier
// fixtures are deleted after their time is taken.
func setUpRepeated(ctx context.Context, cfg config, reps int, chk *checks) (*fixture, []float64, error) {
	var (
		f    *fixture
		secs []float64
	)
	for i := range reps {
		if f != nil {
			if err := os.RemoveAll(f.dir); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		f, err = setUp(ctx, cfg, filepath.Join(cfg.work, fmt.Sprintf("setup-%d", i)), chk)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return f, secs, nil
}

// nameTokens samples n distinct lower-case words of three or more
// letters or digits from the mapping's organization names: the search
// queries an operator would type.
func nameTokens(snap *serve.Snapshot, seed int64, n int) []string {
	seen := make(map[string]bool)
	for _, c := range snap.Mapping().Clusters {
		for _, w := range strings.FieldsFunc(strings.ToLower(c.Name), func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		}) {
			if len(w) >= 3 {
				seen[w] = true
			}
		}
	}
	all := make([]string, 0, len(seen))
	for w := range seen {
		all = append(all, w)
	}
	sort.Strings(all)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(n, len(all))]
}

// writeDelta installs one delta as the file borgesd -delta-in reads,
// by rename so the daemon never reads a half-written file.
func (f *fixture) writeDelta(b []byte) error {
	tmp := f.deltaPath + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.deltaPath)
}
