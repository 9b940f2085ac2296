// Corruption robustness of the query entry points: a trace file mutated
// at arbitrary bytes, driven through deserialize + every query kind,
// must either answer or raise cypress::Error — never crash, hang, or
// throw anything else. This is the same contract (and the same fuzzer)
// the deserializers are held to; queries extend it through the range
// arithmetic and the cursor walk.
#include <gtest/gtest.h>

#include <optional>

#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "driver/pipeline.hpp"
#include "query/cursor.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "verify/fuzz.hpp"

namespace cypress::query {
namespace {

std::vector<uint8_t> goodTraceBytes() {
  driver::Options opts;
  opts.procs = 6;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  return driver::mergeCypress(run).serialize();
}

/// decompressRank and a drained CompressedCursor over one rank: true
/// when both yield the same events or both throw cypress::Error.
bool walksAgree(const core::MergedCtt& m, int rank) {
  std::optional<std::vector<trace::Event>> batch, streamed;
  try {
    batch = core::decompressRank(m, rank);
  } catch (const Error&) {
  }
  try {
    std::vector<trace::Event> events;
    CompressedCursor cur(m, rank);
    for (; !cur.done(); cur.next()) events.push_back(cur.peek());
    streamed = std::move(events);
  } catch (const Error&) {
  }
  return batch == streamed;
}

TEST(QueryFuzz, MutatedTracesNeverEscapeTheErrorContract) {
  const auto good = goodTraceBytes();
  verify::FuzzOptions fo;
  fo.seed = 0xC4B8E55;
  fo.mutations = 150;
  const auto decode = [](std::span<const uint8_t> bytes) {
    cst::Tree tree;
    core::MergedCtt m = core::MergedCtt::deserializeWithTree(bytes, tree);
    // Both drain the same core::RankWalk, so on every covered rank they
    // must agree, however the payload is corrupted.
    const RankSet covered = coveredRanks(m);
    for (int32_t r : covered.ranks())
      EXPECT_TRUE(walksAgree(m, r)) << "rank " << r;
    // A mutant that still deserializes must still answer (or reject)
    // every query kind cleanly.
    runQuery(m, "summary");
    runQuery(m, "matrix");
    runQuery(m, "colls");
    runQuery(m, "callsites src=0 dst=1 iter=0");
  };
  const verify::FuzzReport rep = verify::corruptionFuzz(good, decode, fo);
  EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(QueryFuzz, TruncatedTracesNeverEscapeTheErrorContract) {
  const auto good = goodTraceBytes();
  const auto decode = [](std::span<const uint8_t> bytes) {
    cst::Tree tree;
    core::MergedCtt m = core::MergedCtt::deserializeWithTree(bytes, tree);
    runQuery(m, "summary");
    // The cursor walk must hold the same line event-by-event.
    CompressedCursor cur(m, 0);
    while (!cur.done()) cur.next();
  };
  const verify::FuzzReport rep =
      verify::truncationSweep(good, decode, /*stride=*/7);
  EXPECT_TRUE(rep.ok()) << rep.toString();
}

}  // namespace
}  // namespace cypress::query
