// The traced run in `cyptrace run`'s configuration: CYPRESS recorders
// only, no raw trace, no ScalaTrace. Two contracts:
//
//   Memory: peak RSS follows live state (compressed trees, VM frames,
//     the engine's live requests and collectives), not the event
//     history.
//   Event count: RunOutput::eventCount(), read off the CTTs, equals the
//     raw trace's totalEvents() on every workload, on a faulted run and
//     under Waitsome, and `cyptrace run` prints it in the same line.
//
// Peak RSS is a process high-water mark: the bounds hold per case
// because ctest runs every case in its own process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "driver/pipeline.hpp"
#include "simmpi/fault.hpp"
#include "support/io.hpp"
#include "workloads/workloads.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress::driver {
namespace {

namespace fs = std::filesystem;

/// `cyptrace run`'s recorder set.
Options cliOptions(int procs) {
  Options opts;
  opts.procs = procs;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  return opts;
}

/// CYPRESS plus the raw trace, the count's oracle.
Options withRawOptions(int procs) {
  Options opts = cliOptions(procs);
  opts.withRaw = true;
  return opts;
}

TEST(TracedRunMemory, PeakRssTracksLiveStateNotHistory) {
  // 50k Isend/Irecv/Waitall rounds on 8 ranks: 1.2M events, 76.8 MB as
  // trace::Event records, and 800k requests posted over the run. With
  // no raw trace and consumed requests retired, the run must stay
  // within a quarter of the event history above its starting watermark.
  const char* src = R"(
    func main() {
      var right = (rank + 1) % size;
      var left = (rank + size - 1) % size;
      for (var k = 0; k < 50000; k = k + 1) {
        var s = mpi_isend(right, 1024, 0);
        var r = mpi_irecv(left, 1024, 0);
        mpi_waitall();
      }
    })";
  const uint64_t before = io::peakRssBytes();
  const RunOutput run = runSource("rss", src, cliOptions(8));
  const uint64_t after = io::peakRssBytes();
  ASSERT_EQ(run.eventCount(), 8u * 50000u * 3u);
  const uint64_t history = run.eventCount() * sizeof(trace::Event);
  EXPECT_LT(after - before, history / 4)
      << "the traced run grew RSS by " << (after - before)
      << " bytes against a " << history << "-byte event history";
}

TEST(TracedRunMemory, CompletedCollectivesAreRetired) {
  // 2000 Allreduces on 512 ranks: 1M events, and 2000 collectives that
  // each held a per-rank arrival table (12 KB at this P) once complete.
  const char* src = R"(
    func main() {
      for (var k = 0; k < 2000; k = k + 1) {
        compute(100);
        mpi_allreduce(8);
      }
    })";
  const uint64_t before = io::peakRssBytes();
  const RunOutput run = runSource("colls", src, cliOptions(512));
  const uint64_t after = io::peakRssBytes();
  ASSERT_EQ(run.eventCount(), 512u * 2000u);
  const uint64_t history = run.eventCount() * sizeof(trace::Event);
  EXPECT_LT(after - before, history / 4)
      << "the traced run grew RSS by " << (after - before)
      << " bytes against a " << history << "-byte event history";
}

/// Small process counts each workload accepts.
int smallProcs(const std::string& name) {
  if (name == "BT" || name == "SP") return 9;  // square grids
  if (name == "DT") return 12;
  return 8;
}

TEST(EventCount, MatchesTheRawTraceOnEveryWorkload) {
  const auto names = workloads::allNames();
  ASSERT_EQ(names.size(), 12u);
  for (const std::string& name : names) {
    const RunOutput run = runWorkload(name, withRawOptions(smallProcs(name)));
    ASSERT_GT(run.raw.totalEvents(), 0u) << name;
    EXPECT_EQ(run.eventCount(), run.raw.totalEvents()) << name;
  }
}

TEST(EventCount, KilledRanksCountTheirPartialEvents) {
  // Rank 3 dies entering its 40th MPI call, so its trace ends mid-run
  // and its recorder never finalizes; its events still count.
  Options opts = withRawOptions(8);
  opts.engine.faults.faults.push_back(simmpi::parseFaultSpec("kill:3@40"));
  opts.onStall = vm::OnStall::Salvage;
  const RunOutput run = runWorkload("JACOBI", opts);
  ASSERT_EQ(run.runStats.deadRanks, std::vector<int>{3});
  EXPECT_EQ(run.raw.ranks[3].events.size(), 39u);
  EXPECT_FALSE(run.cypress[3]->finalized());
  EXPECT_EQ(run.eventCount(), run.raw.totalEvents());
}

TEST(EventCount, WaitsomeCountsEveryCompletion) {
  // Each Waitsome emits one event per completed request, so a call can
  // add several events to one leaf execution.
  const RunOutput run = runSource("waitsome", R"(
    func main() {
      for (var i = 0; i < 6; i = i + 1) {
        var a = mpi_isend((rank + 1) % size, 32 + i, 0);
        var b = mpi_irecv((rank + size - 1) % size, 32 + i, 0);
        mpi_waitsome();
        mpi_waitall();
      }
    })", withRawOptions(3));
  size_t waitsomeEvents = 0;
  for (const auto& rt : run.raw.ranks)
    for (const auto& e : rt.events)
      if (e.op == ir::MpiOp::Waitsome) ++waitsomeEvents;
  ASSERT_GT(waitsomeEvents, 6u * 3u) << "no Waitsome completed two requests";
  EXPECT_EQ(run.eventCount(), run.raw.totalEvents());
}

TEST(EventCount, CyptraceRunLineReportsTheRawCount) {
  // `cyptrace run` records no raw trace; its summary line must still
  // carry the raw trace's count, and its artifact the same bytes.
  const std::string dir =
      (fs::temp_directory_path() / ("cyp-run-count." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string out = dir + "/j.cyp";
  const std::string cmd = std::string(CYPTRACE_BIN) +
                          " run JACOBI --procs 8 --out " + out;
  FILE* p = popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  char buf[512] = {};
  const bool gotLine = std::fgets(buf, sizeof buf, p) != nullptr;
  while (std::fgetc(p) != EOF) {
  }
  ASSERT_EQ(pclose(p), 0);
  ASSERT_TRUE(gotLine);
  const std::string line(buf);

  const RunOutput run = runWorkload("JACOBI", withRawOptions(8));
  const std::string want = "traced JACOBI on 8 ranks: " +
                           std::to_string(run.raw.totalEvents()) +
                           " events -> " + out + " (";
  EXPECT_EQ(line.substr(0, want.size()), want) << line;
  EXPECT_EQ(line.substr(line.size() - 2), ")\n") << line;

  std::ifstream in(out, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, mergeCypress(run).serialize());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cypress::driver
