// The cyptrace CLI's read commands, driven through the real binary.
//
// One rank-count rule: a rank is in the trace when any payload (loop
// count, branch outcome or leaf record) covers it, the rule
// query::coveredRanks implements. `info`, `stats` and `replay` must all
// report that count, including for a rank that ran a loop but never
// communicated.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cypress/merge.hpp"
#include "query/engine.hpp"
#include "support/io.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

/// Run `cyptrace <args>` and return its stdout; fails the test on a
/// non-zero exit.
std::string cyptrace(const std::string& args) {
  const std::string cmd = std::string(CYPTRACE_BIN) + " " + args;
  FILE* p = popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(p), 0) << cmd << "\n" << out;
  return out;
}

TEST(Cli, EveryReadCommandCountsRanksWithOnlyLoopPayload) {
  // Ranks 0 and 1 exchange messages inside the loop; rank 2 runs the
  // same loop but never communicates, so only its loop counts cover it.
  const std::string dir =
      (fs::temp_directory_path() / ("cyp-cli." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string src = dir + "/pair.mc";
  const std::string trace = dir + "/pair.cyp";
  std::ofstream(src) << R"(
    func main() {
      for (var i = 0; i < 4; i = i + 1) {
        if (rank == 0) { mpi_send(1, 64, 0); }
        if (rank == 1) { mpi_recv(0, 64, 0); }
      }
    })";
  cyptrace("run " + src + " --procs 3 --out " + trace);

  // The fixture must hit the case: leaf records cover ranks 0 and 1
  // only, while some payload covers all three.
  cst::Tree tree;
  const core::MergedCtt m =
      core::MergedCtt::deserializeWithTree(io::realIo().readAll(trace), tree);
  RankSet leafRanks;
  for (int g = 0; g < tree.numNodes(); ++g)
    for (const core::LeafEntry& e : m.leafEntries(g)) leafRanks.unite(e.ranks);
  ASSERT_EQ(leafRanks.size(), 2u);
  ASSERT_EQ(query::coveredRanks(m).size(), 3u);

  EXPECT_NE(cyptrace("info " + trace).find("covering 3 ranks"),
            std::string::npos);
  EXPECT_NE(cyptrace("stats " + trace).find(trace + " (3 ranks,"),
            std::string::npos);
  EXPECT_NE(cyptrace("replay " + trace).find(" events on 3 ranks "),
            std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cypress
