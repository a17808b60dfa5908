package bench

import (
	"fmt"
	"strings"
	"time"

	"scaf"
	"scaf/internal/interp"
	specrt "scaf/internal/runtime"
)

// ReportExec is one benchmark's speculative-execution summary in the
// -json report. Every field except the wall-clock trio (serial_ns,
// exec_ns, speedup_x) depends only on the program, the SCAF plans, and
// the worker count — never on goroutine timing — so the regression gate
// compares them exactly (see CompareReports).
type ReportExec struct {
	Workers         int    `json:"workers"`
	DoallLoops      int    `json:"doall_loops"`
	RefusedLoops    int    `json:"refused_loops"`
	SpecInvocations int64  `json:"spec_invocations"`
	Chunks          int64  `json:"chunks"`
	CommittedChunks int64  `json:"committed_chunks"`
	AbortedChunks   int64  `json:"aborted_chunks"`
	SpecIters       int64  `json:"spec_iters"`
	SerialIters     int64  `json:"serial_iters"`
	Misspecs        int64  `json:"misspecs"`
	ReplanRounds    int64  `json:"replan_rounds"`
	MemDigest       uint64 `json:"mem_digest"`
	// AbortCostPct is the share of speculated-loop iterations that had
	// to be re-executed serially after an abort:
	// 100·serial_iters/(spec_iters+serial_iters). A ratio of the
	// deterministic counters, so itself deterministic and gate-compared.
	AbortCostPct float64 `json:"abort_cost_pct"`
	// Wall-clock measurements — informational only, never compared:
	// SerialNS times a plain interpretation of the whole program, ExecNS
	// is the speculative run's wall time, SpeedupX their ratio (0 when no
	// iteration was speculated: both runs were then serial
	// interpretations, and their ratio is noise).
	SerialNS int64   `json:"serial_ns"`
	ExecNS   int64   `json:"exec_ns"`
	SpeedupX float64 `json:"speedup_x"`
}

// stripWall returns the copy CompareReports actually diffs: the
// deterministic counters with the wall-clock fields zeroed.
func (e ReportExec) stripWall() ReportExec {
	e.SerialNS, e.ExecNS, e.SpeedupX = 0, 0, 0
	return e
}

// ExecRow pairs a benchmark name with its execution summary.
type ExecRow struct {
	Name string
	Exec *ReportExec
}

// ExecuteSuite runs every benchmark once serially (plain interpretation)
// and once under the speculative-parallel runtime with its SCAF plans,
// verifies the two runs are byte-equal (output and final memory), and
// returns the per-benchmark summaries. A divergence is an error, not a
// report entry: the bench gate must refuse to bank an unsound run.
func ExecuteSuite(s *Suite, workers int) ([]ExecRow, error) {
	rows := make([]ExecRow, 0, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		e, err := executeBench(b, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExecRow{Name: b.Name, Exec: e})
	}
	return rows, nil
}

func executeBench(b *Benchmark, workers int) (*ReportExec, error) {
	t0 := time.Now()
	serial, err := interp.Run(b.Sys.Mod, interp.Options{})
	serialNS := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("%s: serial run: %w", b.Name, err)
	}
	rep, err := b.Sys.ExecutePlan(scaf.SchemeSCAF, specrt.Config{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("%s: speculative run: %w", b.Name, err)
	}
	if strings.Join(rep.Output, "\n") != strings.Join(serial.Output, "\n") {
		return nil, fmt.Errorf("%s: speculative output diverged from serial interpretation", b.Name)
	}
	if dig := serial.Mem.Digest(); rep.MemDigest != dig {
		return nil, fmt.Errorf("%s: speculative final memory %#x diverged from serial %#x", b.Name, rep.MemDigest, dig)
	}
	e := &ReportExec{
		Workers:         workers,
		DoallLoops:      rep.DoallLoops,
		RefusedLoops:    rep.RefusedLoops,
		SpecInvocations: rep.SpecInvocations,
		Chunks:          rep.Chunks,
		CommittedChunks: rep.CommittedChunks,
		AbortedChunks:   rep.AbortedChunks,
		SpecIters:       rep.SpecIters,
		SerialIters:     rep.SerialIters,
		Misspecs:        rep.Misspecs,
		ReplanRounds:    rep.ReplanRounds,
		MemDigest:       rep.MemDigest,
		SerialNS:        serialNS,
		ExecNS:          rep.WallNanos,
	}
	if total := e.SpecIters + e.SerialIters; total > 0 {
		e.AbortCostPct = 100 * float64(e.SerialIters) / float64(total)
		if e.ExecNS > 0 {
			e.SpeedupX = float64(e.SerialNS) / float64(e.ExecNS)
		}
	}
	return e, nil
}

// AttachExec merges execution rows into an existing report by benchmark
// name; rows with no matching report entry are ignored.
func AttachExec(r *Report, rows []ExecRow) {
	byName := map[string]*ReportExec{}
	for _, row := range rows {
		byName[row.Name] = row.Exec
	}
	for i := range r.Benchmarks {
		if e, ok := byName[r.Benchmarks[i].Name]; ok {
			r.Benchmarks[i].Exec = e
		}
	}
}

// RenderExec renders the speculative-execution table: realized
// iterations/sec speedup of the whole program plus the abort cost as the
// serially re-executed iteration share. Iterations/sec uses the
// speculated-loop iteration total over each run's wall time (both runs
// execute the same iterations, since their results are byte-equal). A
// program that speculated no iteration prints "-" for both rates and the
// speedup.
func RenderExec(rows []ExecRow) string {
	var sb strings.Builder
	sb.WriteString("Speculative execution (SCAF plans)\n")
	sb.WriteString(fmt.Sprintf("%-16s %5s %7s %10s %10s %7s %12s %12s %8s %10s\n",
		"benchmark", "doall", "refused", "spec-iters", "ser-iters", "aborts",
		"serial-it/s", "spec-it/s", "speedup", "abort-cost"))
	itersPerSec := func(iters, ns int64) string {
		if iters == 0 || ns == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(iters)/(float64(ns)/1e9))
	}
	for _, row := range rows {
		e := row.Exec
		total := e.SpecIters + e.SerialIters
		speedup := "-"
		if total > 0 {
			speedup = fmt.Sprintf("%.2fx", e.SpeedupX)
		}
		sb.WriteString(fmt.Sprintf("%-16s %5d %7d %10d %10d %7d %12s %12s %8s %9.1f%%\n",
			row.Name, e.DoallLoops, e.RefusedLoops, e.SpecIters, e.SerialIters,
			e.AbortedChunks, itersPerSec(total, e.SerialNS), itersPerSec(total, e.ExecNS),
			speedup, e.AbortCostPct))
	}
	return sb.String()
}
