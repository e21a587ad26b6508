package txsampler_test

// Fingerprint oracle for the scheduler: a golden table of profiled
// runs, recorded once from the canonical (clock, ID) schedule, that
// every later scheduler must reproduce exactly. Each row pins the
// SHA-256 of the serialized profile database, the final memory
// fingerprint, and both cycle totals, so a schedule change anywhere —
// one shared operation admitted out of order, one sample delivered at
// another clock — fails here with the workload named.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/telemetry"
)

// oracleSeed is the one seed every golden row runs at.
const oracleSeed = 11

// oracleRow is one golden run: a workload at a thread count and
// option set, and the four values its run must reproduce.
type oracleRow struct {
	program string
	threads int
	hybrid  machine.HybridPolicy
	tiers   bool // stm-fallback + elision + pmem, as the tiers benchmark mix runs

	dbSHA   string
	memFP   uint64
	elapsed uint64
	total   uint64
}

func (r oracleRow) label() string {
	switch {
	case r.tiers:
		return fmt.Sprintf("%s/%dt/tiers", r.program, r.threads)
	case r.hybrid != machine.HybridLockOnly:
		return fmt.Sprintf("%s/%dt/%v", r.program, r.threads, r.hybrid)
	}
	return fmt.Sprintf("%s/%dt", r.program, r.threads)
}

// oracleRun executes one row's workload profiled, exactly as
// txsampler.RunWorkload configures the machine, and returns the
// observed values. quantum and trace vary the run without changing
// what it may produce.
func oracleRun(t *testing.T, r oracleRow, quantum int, trace *telemetry.Tracer) oracleRow {
	t.Helper()
	w, err := htmbench.Get(r.program)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{
		Threads: r.threads, Cache: txsampler.BenchCache(), Seed: oracleSeed,
		StartSkew: 1024, Periods: txsampler.DefaultPeriods(), Hybrid: r.hybrid,
		Quantum: quantum, Trace: trace,
	}
	if r.tiers {
		cfg.Hybrid, cfg.Elision = machine.HybridStmFallback, machine.ElisionOn
		cfg.Pmem = pmem.Config{Enabled: true}
	}
	m := machine.New(cfg)
	col := core.Attach(m)
	inst := w.BuildInstance(m, nil)
	if err := m.Run(inst.Bodies...); err != nil {
		t.Fatalf("%s: %v", r.label(), err)
	}
	if inst.Check != nil {
		if err := inst.Check(m); err != nil {
			t.Fatalf("%s: result check failed: %v", r.label(), err)
		}
	}
	rep := analyzer.AnalyzeInstrumented(w.Name, col, nil, nil)
	rep.Quality.Injected = m.FaultStats()
	sum := sha256.Sum256(serialize(t, rep))
	got := r
	got.dbSHA = hex.EncodeToString(sum[:])
	got.memFP, got.elapsed, got.total = m.Mem.Fingerprint(), m.Elapsed(), m.TotalCycles()
	return got
}

// requireOracle fails unless got reproduces the golden row want.
func requireOracle(t *testing.T, label string, got, want oracleRow) {
	t.Helper()
	if got != want {
		t.Errorf("%s diverges from the golden schedule:\n got: db=%s mem=%#x elapsed=%d total=%d\nwant: db=%s mem=%#x elapsed=%d total=%d",
			label, got.dbSHA, got.memFP, got.elapsed, got.total, want.dbSHA, want.memFP, want.elapsed, want.total)
	}
}

// oracleTable: the six paper-category programs at 2 and 14 threads,
// the six tier programs at 4 threads with their options, and
// micro/mixed under every hybrid policy.
var oracleTable = []oracleRow{
	{program: "micro/mixed", threads: 2,
		dbSHA: "14d39a1456d513911da36ae93990bb0c9453759796696a7d835c18360133444d",
		memFP: 0x125cb188ac655eec, elapsed: 59172, total: 117818},
	{program: "synchro/linkedlist", threads: 2,
		dbSHA: "718895993a7cdf40255f4b7ecd08012bba2953635e55aaab00d8fb69592fd08f",
		memFP: 0x66f13fd10cde2e7, elapsed: 50283, total: 98876},
	{program: "stamp/vacation", threads: 2,
		dbSHA: "4d9daad59653fe9815bc9121fa7636285bff70b73c72eeaf4d6514810b881173",
		memFP: 0xc0879ff0d06f6454, elapsed: 190288, total: 379792},
	{program: "parsec/dedup", threads: 2,
		dbSHA: "7aeb837e8bde37507592423f8958d87504b178a9969540a6fb980ba765e351a6",
		memFP: 0x10a235212d4b5157, elapsed: 158209, total: 312201},
	{program: "stamp/labyrinth", threads: 2,
		dbSHA: "740b2d071f0bbd0babd397d04907b49861eb53de4995860d682d2d8f522f0f96",
		memFP: 0x4ad27b3d40403856, elapsed: 129416, total: 257725},
	{program: "parboil/histo-1", threads: 2,
		dbSHA: "7a23da67ecd480ab955f38ea07b6731172967f0f01a191990749ed14b865bb18",
		memFP: 0x5614572eebbe73c0, elapsed: 104895, total: 209470},
	{program: "micro/mixed", threads: 14,
		dbSHA: "0fc56cb1e7d7d69adeb48545a853d11012b5ec2436754e33a09dfe788d4bb667",
		memFP: 0x1c6023681675ec12, elapsed: 396513, total: 5469946},
	{program: "synchro/linkedlist", threads: 14,
		dbSHA: "ac0e0534919ed601fe8874e7056f236517ff5117484d580328553655381b3e37",
		memFP: 0x328dca8cde85f1aa, elapsed: 725831, total: 8912500},
	{program: "stamp/vacation", threads: 14,
		dbSHA: "35c7d93a7980bca685da18716298d35b3250f7c1836c577b9325f4e6152a232c",
		memFP: 0xad7f05f5acd6b243, elapsed: 359930, total: 4858806},
	{program: "parsec/dedup", threads: 14,
		dbSHA: "3d0d2d634a7656be9f35684337d340c5b2087c5930a0f8622d2f45cc4e938545",
		memFP: 0xd373e1a2dfda67ea, elapsed: 353156, total: 3516849},
	{program: "stamp/labyrinth", threads: 14,
		dbSHA: "e88ebfa449c7ac5b3fd7d12ca9ab5e4abdb2737bbd9fb037407f89cccf0135b1",
		memFP: 0x2fe4619904ecd443, elapsed: 249550, total: 3372590},
	{program: "parboil/histo-1", threads: 14,
		dbSHA: "d14d00be2917b6783c56358dc6429f035cc27786b5d0ccccca7cb3afea87db2c",
		memFP: 0x105168605e529a71, elapsed: 104013, total: 1442347},
	{program: "elide/read-mostly", threads: 4, tiers: true,
		dbSHA: "9e1256b92fe4b70e413145ea0b6149022daeb71dbabbfea87e2e15183e42fe06",
		memFP: 0x4df6f42235bbfacf, elapsed: 51646, total: 203053},
	{program: "elide/counter", threads: 4, tiers: true,
		dbSHA: "82fac646dd001ecbb58f3d6d8fdf423c53051cdea26d173c8c4faffb58abb72e",
		memFP: 0x46e67492c9d1fc8a, elapsed: 239361, total: 932167},
	{program: "elide/syscall-section", threads: 4, tiers: true,
		dbSHA: "762fd85de8ca4c300726d4c386e4040c8a7c6bdcd45fe0e6307b4497b5f94c47",
		memFP: 0x338c7c45908eb9f1, elapsed: 139948, total: 553506},
	{program: "pmem/kv", threads: 4, tiers: true,
		dbSHA: "dbda67deb0d1525442b446ab1da77e049293bf50b52c2593d2be503b4f35549e",
		memFP: 0x207268d916e817ed, elapsed: 113007, total: 451004},
	{program: "pmem/log", threads: 4, tiers: true,
		dbSHA: "7a41310973a1c66d2afb6ff78a388e3b06708e82f0d4c5e006d59e482df05dd0",
		memFP: 0xfa27f612e677434d, elapsed: 196111, total: 783042},
	{program: "stamp/kmeans", threads: 4, tiers: true,
		dbSHA: "0f3dec1d50a9c32ee3535c523f74e5cbdb1a2c6c334f72b98ec728c1e3bc6b83",
		memFP: 0x863fab5dfa1e8a1f, elapsed: 143362, total: 552904},
	{program: "micro/mixed", threads: 4,
		dbSHA: "051ef3ad311c068ca625060ba8e50971e6721fe6421156b51a539ffe70d7f609",
		memFP: 0xed2d6ebe99864b60, elapsed: 90576, total: 352046},
	{program: "micro/mixed", threads: 4, hybrid: machine.HybridStmFallback,
		dbSHA: "9195f67e5a63e73e32a6154e8c03ebbf40b7c122caff844be7f782efe318d865",
		memFP: 0xed2d6ebe99864b60, elapsed: 88225, total: 337985},
	{program: "micro/mixed", threads: 4, hybrid: machine.HybridSerializeOnConflict,
		dbSHA: "9195f67e5a63e73e32a6154e8c03ebbf40b7c122caff844be7f782efe318d865",
		memFP: 0xed2d6ebe99864b60, elapsed: 88225, total: 337985},
	{program: "micro/mixed", threads: 4, hybrid: machine.HybridSandboxed,
		dbSHA: "327a2abef4628f9abc743b57a3d46e6d3e62883794dfe686ea4cc6ea6612a49a",
		memFP: 0xed2d6ebe99864b60, elapsed: 85991, total: 338632},
}

func TestSchedulerFingerprintOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole golden table")
	}
	for _, want := range oracleTable {
		want := want
		t.Run(want.label(), func(t *testing.T) {
			t.Parallel()
			requireOracle(t, want.label(), oracleRun(t, want, 0, nil), want)
		})
	}
}

// TestSchedulerOracleTracedPerOp reproduces the golden table with a
// tracer attached and a quantum tick after every operation: neither
// observation nor bookkeeping may move the schedule.
func TestSchedulerOracleTracedPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole golden table")
	}
	for _, want := range oracleTable {
		want := want
		t.Run(want.label(), func(t *testing.T) {
			t.Parallel()
			requireOracle(t, want.label(), oracleRun(t, want, 1, telemetry.NewTracer(0)), want)
		})
	}
}
