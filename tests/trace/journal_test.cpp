// CYJ1 crash-consistent journal tests: builder/parser roundtrip, seal
// semantics, strict-vs-lenient reader behaviour, and recovery of a
// crashed run. The core recovery guarantee — a journal cut or flipped
// at ANY byte recovers to a verified prefix of the uninterrupted run's
// trace — is the CYJ1 case of integration/segment_log_test.cpp.
#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "trace/journal.hpp"

namespace cypress {
namespace {

trace::Event ev(int site, int64_t bytes) {
  trace::Event e;
  e.op = ir::MpiOp::Send;
  e.peer = 1;
  e.bytes = bytes;
  e.tag = 3;
  e.callSiteId = site;
  e.computeNs = 10;
  e.durationNs = 20;
  return e;
}

std::vector<uint8_t> journalOf(const std::string& workload, int procs,
                               driver::RunOutput* runOut = nullptr) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.withJournal = true;
  opts.journalFlushEvery = 4;  // many small segments → many torn points
  auto run = driver::runWorkload(workload, opts);
  auto bytes = run.journal->bytes();
  if (runOut) *runOut = std::move(run);
  return bytes;
}

TEST(Journal, BuilderParserRoundtrip) {
  trace::JournalBuilder b(2);
  const std::vector<trace::Event> r0 = {ev(1, 64), ev(2, 128), ev(3, 256)};
  const std::vector<trace::Event> r1 = {ev(4, 32)};
  b.appendEvents(0, std::span<const trace::Event>(r0.data(), 2));
  b.appendEvents(1, r1);
  b.appendEvents(0, std::span<const trace::Event>(r0.data() + 2, 1));
  b.appendFinalize(0);
  b.appendFinalize(1);
  b.seal(RankSet{});
  EXPECT_TRUE(b.sealed());
  EXPECT_EQ(b.totalEvents(), 4u);

  const auto rec = trace::parseJournal(b.bytes());
  EXPECT_TRUE(rec.sealed);
  EXPECT_EQ(rec.bytesDiscarded, 0u);
  EXPECT_TRUE(rec.lostRanks.empty());
  EXPECT_EQ(rec.finalizedRanks, (std::vector<int>{0, 1}));
  EXPECT_TRUE(rec.unfinalizedRanks().empty());
  ASSERT_EQ(rec.trace.ranks.size(), 2u);
  EXPECT_EQ(rec.trace.ranks[0].events, r0);
  EXPECT_EQ(rec.trace.ranks[1].events, r1);
}

TEST(Journal, SealIsTerminal) {
  trace::JournalBuilder b(1);
  const std::vector<trace::Event> events = {ev(1, 8)};
  b.appendEvents(0, events);
  b.seal(RankSet{});
  EXPECT_THROW(b.appendEvents(0, events), Error);
  EXPECT_THROW(b.appendFinalize(0), Error);
  EXPECT_THROW(b.seal(RankSet{}), Error);
}

TEST(Journal, UnsealedJournalIsStrictErrorButRecoverable) {
  trace::JournalBuilder b(1);
  const std::vector<trace::Event> events = {ev(1, 8), ev(2, 16)};
  b.appendEvents(0, events);
  // No finalize, no seal: a tracer killed mid-run.
  EXPECT_THROW(trace::parseJournal(b.bytes()), Error);
  const auto rec = trace::recoverJournal(b.bytes());
  EXPECT_FALSE(rec.sealed);
  EXPECT_EQ(rec.trace.ranks[0].events, events);
  EXPECT_EQ(rec.unfinalizedRanks(), (std::vector<int>{0}));
}

TEST(Journal, BadHeaderThrowsEvenOnRecovery) {
  EXPECT_THROW(trace::recoverJournal({}), Error);
  const std::vector<uint8_t> junk = {9, 9, 9, 9, 9, 9, 9, 9};
  EXPECT_THROW(trace::recoverJournal(junk), Error);
}

TEST(Journal, MatchesRawTraceOnCleanRun) {
  // The journal is a second, crash-consistent encoding of the same
  // observer stream: on a clean run it must agree with the raw trace
  // event for event.
  driver::RunOutput run;
  const auto bytes = journalOf("JACOBI", 8, &run);
  const auto rec = trace::parseJournal(bytes);
  EXPECT_TRUE(rec.sealed);
  EXPECT_TRUE(rec.lostRanks.empty());
  ASSERT_EQ(rec.trace.ranks.size(), run.raw.ranks.size());
  for (size_t r = 0; r < run.raw.ranks.size(); ++r)
    EXPECT_EQ(rec.trace.ranks[r].events, run.raw.ranks[r].events)
        << "rank " << r;
}

TEST(Journal, CrashedRunSealsWithLostRanksAndSurvivorsRecover) {
  driver::Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.withJournal = true;
  opts.journalFlushEvery = 4;
  opts.onStall = vm::OnStall::Salvage;
  opts.engine.faults.faults.push_back(simmpi::parseFaultSpec("kill:2@6"));
  const auto run = driver::runWorkload("JACOBI", opts);
  ASSERT_FALSE(run.runStats.clean());

  const auto rec = trace::recoverJournal(run.journal->bytes());
  EXPECT_TRUE(rec.sealed);
  EXPECT_TRUE(rec.lostRanks.contains(2));
  EXPECT_EQ(rec.lostRanks, run.lostRanks());
  // Every survivor's journaled trace matches its raw trace exactly; the
  // dead rank keeps the prefix it flushed before dying.
  for (size_t r = 0; r < run.raw.ranks.size(); ++r) {
    const auto& got = rec.trace.ranks[r].events;
    const auto& want = run.raw.ranks[r].events;
    if (rec.lostRanks.contains(static_cast<int32_t>(r))) {
      EXPECT_TRUE(got.size() <= want.size() &&
                  std::equal(got.begin(), got.end(), want.begin()))
          << "rank " << r;
    } else {
      EXPECT_EQ(got, want) << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace cypress
