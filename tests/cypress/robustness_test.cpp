// Robustness tests: the serialized-trace deserializer must reject (by
// throwing, never crashing or silently mis-reading) arbitrarily
// corrupted and truncated inputs, and the parallel merge must be
// bit-identical to the sequential one.
#include <gtest/gtest.h>

#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "query/cursor.hpp"
#include "support/rng.hpp"

namespace cypress::core {
namespace {

std::vector<uint8_t> makeTrace(int procs) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  return driver::mergeCypress(run).serialize();
}

std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

TEST(Robustness, TruncatedTraceThrows) {
  const auto bytes = makeTrace(4);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, bytes.size() / 4,
                     bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<ssize_t>(cut));
    cst::Tree tree;
    EXPECT_ANY_THROW({
      MergedCtt m = MergedCtt::deserializeWithTree(truncated, tree);
      // Some truncations may deserialize structurally; decompression
      // must then catch the inconsistency.
      for (int r = 0; r < 4; ++r) decompressRank(m, r);
    }) << "cut at " << cut;
  }
}

TEST(Robustness, BitFlippedTraceNeverCrashes) {
  const auto bytes = makeTrace(4);
  Rng rng(2024);
  int rejected = 0, survived = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> mutated = bytes;
    // Flip 1-4 random bits.
    const int flips = static_cast<int>(rng.range(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
    }
    try {
      cst::Tree tree;
      MergedCtt m = MergedCtt::deserializeWithTree(mutated, tree);
      for (int r = 0; r < 4; ++r) decompressRank(m, r);
      ++survived;  // flip hit a benign field (e.g. a time statistic)
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // Most corruption must be detected; all of it must be exception-safe.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(rejected + survived, 300);
}

TEST(Robustness, ParallelMergeIdenticalToSequential) {
  driver::Options opts;
  opts.procs = 32;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("MG", opts);
  std::vector<const Ctt*> ctts;
  for (const auto& r : run.cypress) ctts.push_back(&r->ctt());

  MergedCtt seq = mergeAll(ctts, nullptr, 1);
  MergedCtt par = mergeAll(ctts, nullptr, 4);
  EXPECT_EQ(seq.serialize(), par.serialize());
  for (int r = 0; r < opts.procs; ++r) {
    EXPECT_EQ(contentOnly(decompressRank(seq, r)),
              contentOnly(decompressRank(par, r)));
  }
}

TEST(Robustness, OfflineMergeFromPerProcessFiles) {
  // The paper's deployment model: each process writes its compressed
  // trace at finalize; the merge runs post-mortem. Serializing every
  // per-process CTT, reading it back and merging must be identical to
  // merging in memory.
  driver::Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);

  std::vector<std::vector<uint8_t>> files;
  for (const auto& rec : run.cypress) files.push_back(rec->ctt().serialize());

  std::vector<Ctt> restored;
  restored.reserve(files.size());
  for (const auto& f : files) restored.push_back(Ctt::deserialize(f, *run.cst));
  std::vector<const Ctt*> ptrs;
  for (const auto& c : restored) ptrs.push_back(&c);

  MergedCtt offline = mergeAll(ptrs);
  MergedCtt direct = driver::mergeCypress(run);
  EXPECT_EQ(offline.serialize(), direct.serialize());
}

TEST(Robustness, PerProcessFileRejectsWrongTree) {
  driver::Options opts;
  opts.procs = 2;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  auto bytes = run.cypress[0]->ctt().serialize();

  driver::RunOutput other = driver::runWorkload("EP", opts);
  EXPECT_THROW(Ctt::deserialize(bytes, *other.cst), Error);
}

TEST(Robustness, DecompressUnknownRankFailsLoudly) {
  const auto bytes = makeTrace(4);
  cst::Tree tree;
  MergedCtt m = MergedCtt::deserializeWithTree(bytes, tree);
  // Rank 17 never ran: decompression must not fabricate events.
  EXPECT_THROW(decompressRank(m, 17), Error);
}

TEST(Robustness, NegativeLoopCountIsRejectedEverywhere) {
  // Rank 0 of a one-rank run records a zero-trip loop. A count of -1 in
  // its place must be refused by both walks and both deserializers, not
  // read as "zero iterations" by one of them.
  driver::Options opts;
  opts.procs = 1;
  opts.withScala = false;
  opts.withScala2 = false;
  const driver::RunOutput run = driver::runSource("negloop", R"(
    func main() {
      for (var i = 0; i < rank; i = i + 1) {
        mpi_barrier();
      }
      mpi_barrier();
    })", opts);
  Ctt ctt = run.cypress[0]->ctt();
  int loopGid = -1;
  for (int g = 0; g < run.cst->numNodes(); ++g)
    if (run.cst->byGid(g)->kind == cst::NodeKind::Loop) loopGid = g;
  ASSERT_GE(loopGid, 0);
  ASSERT_EQ(ctt.loopCounts(loopGid), SectionSeq::compress({0}));
  ctt.loopCountsMut(loopGid) = SectionSeq::compress({-1});
  const MergedCtt m = MergedCtt::fromCtt(ctt, 0);

  EXPECT_THROW(decompressRank(m, 0), Error);
  EXPECT_THROW(
      {
        query::CompressedCursor cur(m, 0);
        while (!cur.done()) cur.next();
      },
      Error);
  EXPECT_THROW(MergedCtt::deserialize(m.serialize(), *run.cst), Error);
  EXPECT_THROW(Ctt::deserialize(ctt.serialize(), *run.cst), Error);
}

}  // namespace
}  // namespace cypress::core
