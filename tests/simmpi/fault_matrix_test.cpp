// Fault-injection matrix: seeded random fault plans over real workloads,
// asserting the robustness contract — every injected fault ends in a
// recovered partial trace, a structured cypress::Error with per-rank
// diagnostics, or a clean run. Never a hang (the ctest TIMEOUT is the
// watchdog), never a crash, never a silently wrong trace.
#include <gtest/gtest.h>

#include <cstring>

#include "driver/pipeline.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "trace/journal.hpp"

namespace cypress {
namespace {

driver::Options faultOptions(const simmpi::FaultPlan& plan, int threads = 1) {
  driver::Options opts;
  opts.procs = 8;
  opts.threads = threads;
  opts.withScala = false;  // the contract under test is CYPRESS + journal
  opts.withScala2 = false;
  opts.engine.faults = plan;
  opts.withJournal = true;
  opts.journalFlushEvery = 8;  // small batches: tighter recovery bound
  opts.onStall = vm::OnStall::Salvage;
  return opts;
}

/// Check one salvaged (or clean) run end to end: merged trace valid,
/// journal sealed and strictly parseable, annotations consistent.
void checkOutcome(const driver::RunOutput& run,
                  const simmpi::FaultPlan& plan) {
  const std::string ctx = "plan " + plan.toString();
  const RankSet lost = run.lostRanks();

  // Graceful degradation: merging must succeed whatever the damage, and
  // the survivors' trace must carry the lost-rank annotation.
  const auto merged = driver::mergeCypress(run);
  EXPECT_EQ(merged.lostRanks(), lost) << ctx;
  const auto bytes = merged.serialize();
  cst::Tree tree;
  const auto back = core::MergedCtt::deserializeWithTree(bytes, tree);
  EXPECT_EQ(back.lostRanks(), lost) << ctx;
  EXPECT_EQ(back.serialize(), bytes) << ctx;

  // The journal must be sealed with the same lost set, pass the strict
  // parser, and agree with the raw trace on every surviving rank.
  ASSERT_NE(run.journal, nullptr) << ctx;
  EXPECT_TRUE(run.journal->sealed()) << ctx;
  const auto rec = trace::parseJournal(run.journal->bytes());
  EXPECT_TRUE(rec.sealed) << ctx;
  EXPECT_EQ(rec.lostRanks, lost) << ctx;
  ASSERT_EQ(rec.trace.ranks.size(), run.raw.ranks.size()) << ctx;
  for (size_t r = 0; r < run.raw.ranks.size(); ++r) {
    if (lost.contains(static_cast<int32_t>(r))) continue;
    EXPECT_EQ(rec.trace.ranks[r].events, run.raw.ranks[r].events)
        << ctx << ": journal diverges from the raw trace on rank " << r;
  }

  if (run.runStats.clean()) {
    EXPECT_TRUE(lost.empty()) << ctx;
  } else {
    // Salvaged: diagnostics must exist iff ranks stalled, and every
    // dead rank must be annotated lost.
    if (!run.runStats.stalledRanks.empty()) {
      EXPECT_FALSE(run.runStats.stallDiagnostics.empty()) << ctx;
    }
    for (int r : run.runStats.deadRanks) EXPECT_TRUE(lost.contains(r)) << ctx;
  }
}

TEST(FaultMatrix, TwentyFourSeededPlansObeyTheContract) {
  int clean = 0, salvaged = 0, structured = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const auto plan = simmpi::randomFaultPlan(seed, /*numRanks=*/8);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.toString());
    try {
      const auto run = driver::runWorkload("JACOBI", faultOptions(plan));
      checkOutcome(run, plan);
      run.runStats.clean() ? ++clean : ++salvaged;
    } catch (const Error& e) {
      // The structured-error outcome is acceptable, but it must carry
      // per-rank diagnostics, not a bare failure.
      EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos)
          << e.what();
      ++structured;
    }
  }
  // The seeded matrix must actually exercise the fault paths: some runs
  // survive degraded, and not every plan may land on a no-op ordinal.
  EXPECT_GT(salvaged + structured, 0);
  EXPECT_EQ(clean + salvaged + structured, 24);
}

TEST(FaultMatrix, CollectiveWorkloadSurvivesTheMatrixToo) {
  // FT is collective-heavy, so abort faults land inside collectives and
  // the salvage path must cope with half-arrived collectives.
  for (uint64_t seed = 100; seed < 108; ++seed) {
    const auto plan = simmpi::randomFaultPlan(seed, /*numRanks=*/8);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.toString());
    try {
      const auto run = driver::runWorkload("FT", faultOptions(plan));
      checkOutcome(run, plan);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultMatrix, KilledRankYieldsPartialTraceForSurvivors) {
  // Deterministic spot check of the degraded path: rank 3 dies at its
  // 5th MPI call, the survivors' merged trace stays valid and annotated.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("kill:3@5"));
  const auto run = driver::runWorkload("JACOBI", faultOptions(plan));
  EXPECT_EQ(run.runStats.deadRanks, (std::vector<int>{3}));
  EXPECT_FALSE(run.runStats.clean());
  const auto merged = driver::mergeCypress(run);
  EXPECT_TRUE(merged.lostRanks().contains(3));
  checkOutcome(run, plan);
}

TEST(FaultMatrix, EveryRankDeadDegradesToAnnotatedEmptyTrace) {
  simmpi::FaultPlan plan;
  for (int r = 0; r < 8; ++r)
    plan.faults.push_back(simmpi::parseFaultSpec(
        "kill:" + std::to_string(r) + "@1"));
  const auto run = driver::runWorkload("JACOBI", faultOptions(plan));
  EXPECT_EQ(run.runStats.deadRanks.size(), 8u);
  const auto merged = driver::mergeCypress(run);
  EXPECT_EQ(merged.lostRanks().size(), 8u);
  // Still a valid, roundtrippable CYPC file.
  const auto bytes = merged.serialize();
  cst::Tree tree;
  const auto back = core::MergedCtt::deserializeWithTree(bytes, tree);
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(FaultMatrix, ParallelSchedulerPreservesFaultOutcomes) {
  // The seeded matrix again, but under the parallel epoch scheduler:
  // every plan must resolve to exactly the same outcome at threads 1
  // and threads 4 — same journal bytes, same casualties, same
  // diagnostics, or the same structured error. Fault ordinals are
  // per-rank counters and commits run in rank order, so the thread
  // count must be unobservable even mid-crash.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const auto plan = simmpi::randomFaultPlan(seed, /*numRanks=*/8);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.toString());
    struct Outcome {
      bool threw = false;
      std::string error;
      std::vector<uint8_t> journal;
      std::vector<int> deadRanks;
      std::vector<int> stalledRanks;
      std::string stallDiagnostics;
    };
    auto runAt = [&](int threads) {
      Outcome o;
      try {
        const auto run = driver::runWorkload("JACOBI",
                                             faultOptions(plan, threads));
        checkOutcome(run, plan);
        o.journal = run.journal->bytes();
        o.deadRanks = run.runStats.deadRanks;
        o.stalledRanks = run.runStats.stalledRanks;
        o.stallDiagnostics = run.runStats.stallDiagnostics;
      } catch (const Error& e) {
        o.threw = true;
        o.error = e.what();
      }
      return o;
    };
    const Outcome seq = runAt(1);
    const Outcome par = runAt(4);
    EXPECT_EQ(par.threw, seq.threw);
    EXPECT_EQ(par.error, seq.error);
    EXPECT_EQ(par.journal, seq.journal);
    EXPECT_EQ(par.deadRanks, seq.deadRanks);
    EXPECT_EQ(par.stalledRanks, seq.stalledRanks);
    EXPECT_EQ(par.stallDiagnostics, seq.stallDiagnostics);
  }
}

TEST(FaultMatrix, CollectiveFaultsIdenticalUnderParallelScheduler) {
  // FT's collectives under the same contract: abort faults that land
  // inside half-arrived collectives must salvage identically at any
  // thread count.
  for (uint64_t seed = 100; seed < 104; ++seed) {
    const auto plan = simmpi::randomFaultPlan(seed, /*numRanks=*/8);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.toString());
    auto journalAt = [&](int threads) -> std::vector<uint8_t> {
      try {
        const auto run = driver::runWorkload("FT", faultOptions(plan, threads));
        return run.journal->bytes();
      } catch (const Error& e) {
        return std::vector<uint8_t>(e.what(),
                                    e.what() + std::strlen(e.what()));
      }
    };
    EXPECT_EQ(journalAt(4), journalAt(1));
  }
}

TEST(FaultMatrix, FaultedRunsAreDeterministic) {
  // Same (program, seed, plan) triple → byte-identical journal and
  // identical diagnostics, run twice.
  const auto plan = simmpi::randomFaultPlan(7, /*numRanks=*/8);
  auto once = [&] { return driver::runWorkload("CG", faultOptions(plan)); };
  const auto a = once();
  const auto b = once();
  ASSERT_NE(a.journal, nullptr);
  ASSERT_NE(b.journal, nullptr);
  EXPECT_EQ(a.journal->bytes(), b.journal->bytes());
  EXPECT_EQ(a.runStats.deadRanks, b.runStats.deadRanks);
  EXPECT_EQ(a.runStats.stalledRanks, b.runStats.stalledRanks);
  EXPECT_EQ(a.runStats.stallDiagnostics, b.runStats.stallDiagnostics);
}

}  // namespace
}  // namespace cypress
