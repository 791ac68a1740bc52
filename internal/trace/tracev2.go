package trace

// Trace v2 — the versioned executed-trace format behind record/replay.
// Where the v1 Set records what a simulation *did* (per-rank activity
// segments, for analytics), a v2 Recorded captures what a run *was*:
// the exact per-(rank, step) execution-phase, injected-delay and noise
// durations plus enough scenario context (topology, machine, message
// size) to rebuild a workload whose re-simulation reproduces the source
// run byte-identically.
//
// # On-disk format
//
// A trace v2 file is journal-style CRC-framed binary:
//
//	magic "IWT2\n"
//	frame*
//
// where each frame is
//
//	u32le payload length | u32le CRC-32C of payload | payload (JSON)
//
// The first frame is the header record, then one record per rank in
// ascending rank order, then an explicit end record — so a torn tail
// (crash mid-write) is detectable, unlike a format that just ends after
// the last rank. Durations travel as JSON float64 seconds, which
// encoding/json round-trips exactly (shortest-form strconv), so the
// decoded values are bit-identical to the recorded ones.

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// MagicV2 identifies a trace v2 file (Idle Wave Trace, format 2).
const MagicV2 = "IWT2\n"

// VersionV2 is the format version the header must carry.
const VersionV2 = 2

// MaxRecordV2 bounds a single frame's payload; larger length fields are
// treated as corruption, so a corrupt length cannot force a huge
// allocation.
const MaxRecordV2 = 64 << 20

// castagnoli is the CRC-32C table shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Recorded is a decoded trace v2: the exact per-(rank, step) durations
// of a run plus the scenario context replay needs.
type Recorded struct {
	// Topology, Machine and NetModel are the run's component specs in
	// their flag spellings (NetModel empty when the model derived from
	// the machine). Workload is the source workload's label,
	// informational only.
	Topology string
	Machine  string
	NetModel string
	Workload string
	// Seed is the source run's seed (informational; replay needs no
	// randomness).
	Seed uint64
	// Ranks, Steps and Bytes shape the replayed programs.
	Ranks int
	Steps int
	Bytes int
	// TexecNS is the run's analytics phase length in nanoseconds.
	TexecNS int64
	// Exact reports that Exec/Delay hold the source programs' own op
	// durations (not measured segment lengths), so replay reproduces
	// the run byte-identically. Memory-bound and non-bulk-shaped runs
	// record measured values instead and replay approximately.
	Exact bool
	// Exec, Delay and Noise are the per-[rank][step] durations in
	// seconds: the execution phase, the aggregated injected delay
	// before it, and the noise extension after it.
	Exec  [][]float64
	Delay [][]float64
	Noise [][]float64
	// StepEnd is the recorded per-[rank][step] completion time,
	// informational (replay derives its own).
	StepEnd [][]float64
}

// Validate checks structural invariants: positive shape, matrix
// dimensions matching Ranks x Steps, non-negative durations.
func (r Recorded) Validate() error {
	if r.Ranks <= 0 || r.Steps <= 0 {
		return fmt.Errorf("trace: recorded run needs positive ranks and steps, got %dx%d", r.Ranks, r.Steps)
	}
	if r.Bytes <= 0 {
		return fmt.Errorf("trace: recorded run needs a positive message size, got %d", r.Bytes)
	}
	if r.Topology == "" {
		return fmt.Errorf("trace: recorded run has no topology spec")
	}
	for name, m := range map[string][][]float64{"exec": r.Exec, "delay": r.Delay, "noise": r.Noise} {
		if len(m) != r.Ranks {
			return fmt.Errorf("trace: %s matrix has %d ranks, header says %d", name, len(m), r.Ranks)
		}
		for rk, row := range m {
			if len(row) != r.Steps {
				return fmt.Errorf("trace: %s matrix rank %d has %d steps, header says %d", name, rk, len(row), r.Steps)
			}
			for s, v := range row {
				if v < 0 || v != v {
					return fmt.Errorf("trace: %s[%d][%d] is negative or NaN", name, rk, s)
				}
			}
		}
	}
	return nil
}

// v2Header is the header frame's payload.
type v2Header struct {
	Version  int    `json:"version"`
	Topology string `json:"topology"`
	Machine  string `json:"machine,omitempty"`
	NetModel string `json:"netmodel,omitempty"`
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed"`
	Ranks    int    `json:"ranks"`
	Steps    int    `json:"steps"`
	Bytes    int    `json:"bytes"`
	TexecNS  int64  `json:"texec_ns"`
	Exact    bool   `json:"exact"`
}

// v2Rank is one rank frame's payload.
type v2Rank struct {
	Rank    int       `json:"rank"`
	Exec    []float64 `json:"exec"`
	Delay   []float64 `json:"delay"`
	Noise   []float64 `json:"noise"`
	StepEnd []float64 `json:"step_end,omitempty"`
}

// v2End is the explicit end frame's payload.
type v2End struct {
	End   bool `json:"end"`
	Ranks int  `json:"ranks"`
}

// WriteRecorded writes a trace v2 stream.
func WriteRecorded(w io.Writer, rec Recorded) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(MagicV2); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	hdr := v2Header{
		Version: VersionV2, Topology: rec.Topology, Machine: rec.Machine,
		NetModel: rec.NetModel, Workload: rec.Workload, Seed: rec.Seed,
		Ranks: rec.Ranks, Steps: rec.Steps, Bytes: rec.Bytes,
		TexecNS: rec.TexecNS, Exact: rec.Exact,
	}
	if err := writeFrame(bw, hdr); err != nil {
		return err
	}
	for r := 0; r < rec.Ranks; r++ {
		fr := v2Rank{Rank: r, Exec: rec.Exec[r], Delay: rec.Delay[r], Noise: rec.Noise[r]}
		if r < len(rec.StepEnd) {
			fr.StepEnd = rec.StepEnd[r]
		}
		if err := writeFrame(bw, fr); err != nil {
			return err
		}
	}
	if err := writeFrame(bw, v2End{End: true, Ranks: rec.Ranks}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// writeFrame appends one CRC-framed JSON payload.
func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadRecorded decodes a trace v2 stream. Every corruption mode — bad
// magic, unknown version, torn tail, CRC mismatch, out-of-order or
// missing rank frames, a missing end record — is an error, never a
// panic or a silently truncated result.
func ReadRecorded(r io.Reader) (Recorded, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(MagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return Recorded{}, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != MagicV2 {
		return Recorded{}, fmt.Errorf("trace: not a trace v2 file (magic %q)", magic)
	}

	var hdr v2Header
	if err := readFrame(br, &hdr); err != nil {
		return Recorded{}, fmt.Errorf("trace: header: %w", err)
	}
	if hdr.Version != VersionV2 {
		return Recorded{}, fmt.Errorf("trace: unsupported trace version %d (want %d)", hdr.Version, VersionV2)
	}
	if hdr.Ranks <= 0 || hdr.Steps <= 0 {
		return Recorded{}, fmt.Errorf("trace: header declares %dx%d run", hdr.Ranks, hdr.Steps)
	}
	const maxShape = 1 << 24
	if hdr.Ranks > maxShape || hdr.Steps > maxShape {
		return Recorded{}, fmt.Errorf("trace: header shape %dx%d implausibly large", hdr.Ranks, hdr.Steps)
	}

	// The matrices grow as rank frames arrive, so a header that declares
	// a huge shape costs only the bytes actually read behind it.
	rec := Recorded{
		Topology: hdr.Topology, Machine: hdr.Machine, NetModel: hdr.NetModel,
		Workload: hdr.Workload, Seed: hdr.Seed, Ranks: hdr.Ranks,
		Steps: hdr.Steps, Bytes: hdr.Bytes, TexecNS: hdr.TexecNS, Exact: hdr.Exact,
	}
	for i := 0; i < hdr.Ranks; i++ {
		var fr v2Rank
		if err := readFrame(br, &fr); err != nil {
			return Recorded{}, fmt.Errorf("trace: rank frame %d: %w", i, err)
		}
		if fr.Rank != i {
			return Recorded{}, fmt.Errorf("trace: rank frame %d carries rank %d", i, fr.Rank)
		}
		if len(fr.Exec) != hdr.Steps || len(fr.Delay) != hdr.Steps || len(fr.Noise) != hdr.Steps {
			return Recorded{}, fmt.Errorf("trace: rank %d frame has %d/%d/%d steps, header says %d",
				i, len(fr.Exec), len(fr.Delay), len(fr.Noise), hdr.Steps)
		}
		rec.Exec = append(rec.Exec, fr.Exec)
		rec.Delay = append(rec.Delay, fr.Delay)
		rec.Noise = append(rec.Noise, fr.Noise)
		if fr.StepEnd != nil && rec.StepEnd == nil {
			rec.StepEnd = make([][]float64, i) // ranks before i carry none
		}
		if rec.StepEnd != nil {
			rec.StepEnd = append(rec.StepEnd, fr.StepEnd)
		}
	}
	var end v2End
	if err := readFrame(br, &end); err != nil {
		return Recorded{}, fmt.Errorf("trace: end record: %w", err)
	}
	if !end.End || end.Ranks != hdr.Ranks {
		return Recorded{}, fmt.Errorf("trace: malformed end record")
	}
	if err := rec.Validate(); err != nil {
		return Recorded{}, err
	}
	return rec, nil
}

// readFrame reads and verifies one CRC-framed JSON payload into v.
func readFrame(r io.Reader, v any) error {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return fmt.Errorf("short frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(head[0:])
	sum := binary.LittleEndian.Uint32(head[4:])
	if n > MaxRecordV2 {
		return fmt.Errorf("frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("torn frame: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return fmt.Errorf("frame CRC mismatch")
	}
	dec := json.NewDecoder(strings.NewReader(string(payload)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("frame payload: %w", err)
	}
	return nil
}

// ImportCSV builds a Recorded from a simple external MPI timing log:
// CSV lines "rank,step,phase_ns" (a leading header line with those
// column names is skipped). The caller supplies the scenario context
// the log lacks — the topology spec the ranks communicated on and the
// per-neighbor message size. Missing (rank, step) cells default to
// zero; delay and noise matrices are zero (external logs fold delays
// and noise into the measured phase time).
func ImportCSV(r io.Reader, topology string, bytes int) (Recorded, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return Recorded{}, fmt.Errorf("trace: csv: %w", err)
	}
	if len(rows) > 0 && strings.EqualFold(strings.TrimSpace(rows[0][0]), "rank") {
		rows = rows[1:]
	}
	if len(rows) == 0 {
		return Recorded{}, fmt.Errorf("trace: csv: no data rows")
	}
	type cell struct{ rank, step int }
	phase := make(map[cell]float64, len(rows))
	ranks, steps := 0, 0
	for i, row := range rows {
		rank, err1 := strconv.Atoi(strings.TrimSpace(row[0]))
		step, err2 := strconv.Atoi(strings.TrimSpace(row[1]))
		ns, err3 := strconv.ParseFloat(strings.TrimSpace(row[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil || rank < 0 || step < 0 || ns < 0 || ns != ns {
			return Recorded{}, fmt.Errorf("trace: csv row %d: want non-negative rank,step,phase_ns", i+1)
		}
		phase[cell{rank, step}] += ns / 1e9
		if rank+1 > ranks {
			ranks = rank + 1
		}
		if step+1 > steps {
			steps = step + 1
		}
	}
	rec := Recorded{
		Topology: topology, Ranks: ranks, Steps: steps, Bytes: bytes,
		Exec:  make([][]float64, ranks),
		Delay: make([][]float64, ranks),
		Noise: make([][]float64, ranks),
	}
	for i := 0; i < ranks; i++ {
		rec.Exec[i] = make([]float64, steps)
		rec.Delay[i] = make([]float64, steps)
		rec.Noise[i] = make([]float64, steps)
		for s := 0; s < steps; s++ {
			rec.Exec[i][s] = phase[cell{i, s}]
		}
	}
	if err := rec.Validate(); err != nil {
		return Recorded{}, err
	}
	return rec, nil
}
