package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"time"

	"repro/internal/core"
)

// paperDigest is the SHA-256 over every report of the paper-full batch
// at its default seed (42); see digestReports.
const paperDigest = "3a562265b3159b5b67d5019f19ce1bcf8fefe30db79de2a1a4e5d239cabbf8f0"

// runPaperFull runs every registered experiment at full paper size, in
// core.Experiments() order, as one batch. The user-level request is one
// batch: the figure set a reproducer waits for.
func runPaperFull(e *childEnv) error {
	ids := core.Experiments()
	opts := core.Options{Seed: e.seed, Workers: parallelism}
	reports := make([]*core.Report, 0, len(ids))
	if err := e.begin(); err != nil {
		return err
	}
	t0 := time.Now()
	for _, id := range ids {
		e.res.Attempted++
		s := time.Now()
		rep, err := core.Run(id, opts)
		if e.traced {
			e.layer("core."+id+"_s", time.Since(s).Seconds())
		}
		if err != nil {
			e.res.fail("%s: %v", id, err)
			continue
		}
		reports = append(reports, rep)
	}
	e.res.LatMS = []float64{time.Since(t0).Seconds() * 1e3}
	if err := e.end(); err != nil {
		return err
	}
	if e.traced {
		e.layer("sweep.parallelism", e.res.CPUS/e.res.WallS)
	}
	e.res.Digest = digestReports(reports)
	return nil
}

// digestReports hashes each report's rendered text and its data rows
// (cells separated by 0x1f, rows by newlines).
func digestReports(reports []*core.Report) string {
	h := sha256.New()
	for _, r := range reports {
		io.WriteString(h, r.String())
		for _, row := range r.Data {
			io.WriteString(h, strings.Join(row, "\x1f"))
			io.WriteString(h, "\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
