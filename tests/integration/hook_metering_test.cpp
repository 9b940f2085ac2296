// Hook-cost metering is observation only: a run with
// driver::Options::meterHooks on (every CYPRESS and ScalaTrace hook
// charged to a CostMeter) and one with it off (no clock reads) must
// produce byte-identical artifacts at any thread count, and only the
// metered run may report hook cost.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

namespace cypress {
namespace {

namespace fs = std::filesystem;

/// Recursion (a pseudo-loop re-entered through calls) plus Waitsome
/// (a leaf that fires a variable number of times per execution): the
/// two hook paths the workloads exercise least.
constexpr const char* kRecursionWaitsome = R"(
  func down(n) {
    if (n > 0) {
      mpi_bcast(0, 32 + n);
      down(n - 1);
      mpi_reduce(0, 16);
    }
  }
  func main() {
    for (var i = 0; i < 5; i = i + 1) {
      var a = mpi_isend((rank + 1) % size, 32 + i, 0);
      var b = mpi_irecv((rank + size - 1) % size, 32 + i, 0);
      mpi_waitsome();
      mpi_waitall();
      down(1 + i % 3);
    }
  })";

/// Every byte a run's tools produce: the merged trace (the `.cyp`),
/// each file writeRankTraces emits, and each rank's ScalaTrace V1 and
/// V2 STR1 trace.
struct Artifacts {
  std::vector<uint8_t> merged;
  std::map<std::string, std::vector<uint8_t>> rankDir;
  std::vector<std::vector<uint8_t>> scala;
  std::vector<std::vector<uint8_t>> scala2;
};

Artifacts artifactsOf(const driver::RunOutput& run, int threads) {
  Artifacts a;
  a.merged = driver::mergeCypress(run, nullptr, threads).serialize();
  const fs::path dir = fs::temp_directory_path() /
                       ("cyp-meter-ranks." + std::to_string(getpid()));
  fs::remove_all(dir);
  driver::writeRankTraces(run, dir.string(), nullptr, threads);
  for (const auto& f : fs::directory_iterator(dir))
    a.rankDir[f.path().filename().string()] =
        io::realIo().readAll(f.path().string());
  fs::remove_all(dir);
  for (const auto& r : run.scala) a.scala.push_back(r->serialize());
  for (const auto& r : run.scala2) a.scala2.push_back(r->serialize());
  return a;
}

driver::Options options(int procs, int threads, bool meterHooks) {
  driver::Options opts;
  opts.procs = procs;
  opts.threads = threads;
  opts.withRaw = false;
  opts.meterHooks = meterHooks;
  return opts;
}

/// Runs `run(opts)` metered at 1 thread as the reference, then metered
/// at 4 and unmetered at 1 and 4, and requires identical artifacts.
template <typename RunFn>
void expectMeteringInvisible(int procs, const RunFn& run) {
  const driver::RunOutput ref = run(options(procs, 1, true));
  ASSERT_TRUE(ref.runStats.clean());
  ASSERT_EQ(ref.scala.size(), static_cast<size_t>(procs));
  ASSERT_EQ(ref.scala2.size(), static_cast<size_t>(procs));
  const Artifacts want = artifactsOf(ref, 1);
  ASSERT_EQ(want.rankDir.size(), static_cast<size_t>(procs) + 2u);
  EXPECT_GT(ref.cypressIntraSeconds(), 0.0);
  EXPECT_GT(ref.scalaIntraSeconds(), 0.0);
  EXPECT_GT(ref.scala2IntraSeconds(), 0.0);

  for (const bool meter : {true, false}) {
    for (const int threads : {1, 4}) {
      if (meter && threads == 1) continue;  // the reference itself
      SCOPED_TRACE(std::string(meter ? "metered" : "unmetered") +
                   " threads=" + std::to_string(threads));
      const driver::RunOutput got = run(options(procs, threads, meter));
      EXPECT_EQ(got.hooksMetered, meter);
      const Artifacts have = artifactsOf(got, threads);
      EXPECT_EQ(have.merged, want.merged);
      EXPECT_EQ(have.rankDir, want.rankDir);
      EXPECT_EQ(have.scala, want.scala);
      EXPECT_EQ(have.scala2, want.scala2);
      if (!meter) {
        EXPECT_THROW(got.cypressIntraSeconds(), Error);
        EXPECT_THROW(got.scalaIntraSeconds(), Error);
        EXPECT_THROW(got.scala2IntraSeconds(), Error);
        for (const auto& r : got.cypress) EXPECT_EQ(r->cost().totalNs(), 0u);
        for (const auto& r : got.scala) EXPECT_EQ(r->cost().totalNs(), 0u);
        for (const auto& r : got.scala2) EXPECT_EQ(r->cost().totalNs(), 0u);
      }
    }
  }
}

TEST(HookMetering, LuArtifactsIdenticalMeteredOrNot) {
  expectMeteringInvisible(16, [](const driver::Options& o) {
    return driver::runWorkload("LU", o);
  });
}

TEST(HookMetering, CgArtifactsIdenticalMeteredOrNot) {
  expectMeteringInvisible(16, [](const driver::Options& o) {
    return driver::runWorkload("CG", o);
  });
}

TEST(HookMetering, RecursionWaitsomeArtifactsIdenticalMeteredOrNot) {
  expectMeteringInvisible(4, [](const driver::Options& o) {
    return driver::runSource("recursion-waitsome", kRecursionWaitsome, o);
  });
}

TEST(HookMetering, DriverMetersByDefault) {
  // Library callers (the Fig. 16 bench, compare_tools) read the hook
  // totals off a default Options.
  EXPECT_TRUE(driver::Options().meterHooks);
}

}  // namespace
}  // namespace cypress
