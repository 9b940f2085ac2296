// Retirement in the simulated MPI engine: it keeps only live requests
// and collectives, retiring the consumed prefix after every completion,
// while request ids and collective sequence numbers stay monotonic.
// These pin what must not change because of it: a Wait on a retired
// handle is still refused as already completed, stall dumps still name
// the monotonic `request #N` and `seq=N`, and finalize still refuses a
// rank with a live un-waited request.
#include <gtest/gtest.h>

#include "minic/compile.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "vm/runner.hpp"

namespace cypress {
namespace {

/// Run `src` untraced on `ranks` ranks; returns the Error message, or
/// fails the test when the run completes.
std::string runError(const std::string& src, int ranks) {
  auto m = minic::compileProgram(src);
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  simmpi::Engine engine(cfg);
  std::vector<trace::Observer*> obs(static_cast<size_t>(ranks), nullptr);
  try {
    vm::run(*m, engine, obs, vm::RunOptions{});
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the run to fail, but it completed";
  return {};
}

/// Ten ring exchanges: requests 0..19 on every rank, all consumed by
/// the Waitalls and so retired before the statement that follows.
constexpr const char* kRetiredPrefix = R"(
    var right = (rank + 1) % size;
    var left = (rank + size - 1) % size;
    for (var i = 0; i < 10; i = i + 1) {
      var s = mpi_isend(right, 8, 1);
      var r = mpi_irecv(left, 8, 1);
      mpi_waitall();
    })";

TEST(RequestRetirement, WaitTwiceOnARetiredIsendIsRefused) {
  // `a` is consumed by the first Wait; the exchanges after it retire it
  // and push the live window past its id. The second Wait must still be
  // refused as already completed, not as an unknown request.
  const std::string msg = runError(std::string(R"(
    func main() {
      var a = mpi_isend((rank + 1) % size, 8, 0);
      mpi_recv((rank + size - 1) % size, 8, 0);
      mpi_wait(a);)") + kRetiredPrefix + R"(
      mpi_wait(a);
    })", 2);
  EXPECT_NE(msg.find("Wait on already-completed request"), std::string::npos)
      << msg;
}

TEST(RequestRetirement, StallDumpNamesTheMonotonicRequestId) {
  // After twenty retired requests the stuck Irecv is request #20 on
  // every rank — its id, not its slot in the live table.
  const std::string msg = runError(std::string(R"(
    func main() {)") + kRetiredPrefix + R"(
      var late = mpi_irecv(left, 8, 7);
      mpi_wait(late);
    })", 2);
  EXPECT_NE(msg.find("MPI hang detected"), std::string::npos) << msg;
  for (int r = 0; r < 2; ++r)
    EXPECT_NE(msg.find("rank " + std::to_string(r) +
                       ": blocked in MPI_Wait"),
              std::string::npos)
        << msg;
  EXPECT_NE(msg.find("request #20 (MPI_Irecv) incomplete"), std::string::npos)
      << msg;
}

TEST(RequestRetirement, FinalizeWithALiveIrecvIsRefused) {
  // Rank 0 posts an Irecv nobody matches and never waits on it. Every
  // earlier request is retired; the live one must still block finalize.
  const std::string msg = runError(std::string(R"(
    func main() {)") + kRetiredPrefix + R"(
      if (rank == 0) { var orphan = mpi_irecv(1, 8, 9); }
    })", 2);
  EXPECT_NE(msg.find("rank 0 finalized with outstanding request 20"),
            std::string::npos)
      << msg;
}

TEST(RequestRetirement, IdsStayMonotonicAcrossRetirement) {
  simmpi::Engine::Config cfg;
  cfg.numRanks = 2;
  simmpi::Engine e(cfg);
  simmpi::OpDesc isend;
  isend.op = ir::MpiOp::Isend;
  isend.peer = 1;
  isend.bytes = 8;
  simmpi::OpDesc wait;
  wait.op = ir::MpiOp::Wait;
  for (int64_t i = 0; i < 5; ++i) {
    int64_t id = -1;
    ASSERT_EQ(e.execute(0, isend, &id), simmpi::OpStatus::Complete);
    EXPECT_EQ(id, i);  // a retired id is never handed out again
    wait.waitReqId = id;
    ASSERT_EQ(e.execute(0, wait), simmpi::OpStatus::Complete);
  }
  wait.waitReqId = 2;  // retired
  try {
    e.execute(0, wait);
    ADD_FAILURE() << "Wait on a retired request was accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("already-completed"),
              std::string::npos)
        << err.what();
  }
  wait.waitReqId = 5;  // never issued
  try {
    e.execute(0, wait);
    ADD_FAILURE() << "Wait on an unissued request was accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("Wait on invalid request 5"),
              std::string::npos)
        << err.what();
  }
}

TEST(CollectiveRetirement, StallDumpKeepsTheMonotonicSequence) {
  // Ten barriers complete and retire; rank 1 then dies entering the
  // eleventh, so the survivors block in collective seq 10.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("kill:1@11"));
  auto m = minic::compileProgram(R"(
    func main() {
      for (var i = 0; i < 11; i = i + 1) { mpi_barrier(); }
    })");
  simmpi::Engine::Config cfg;
  cfg.numRanks = 3;
  cfg.faults = plan;
  simmpi::Engine engine(cfg);
  std::vector<trace::Observer*> obs(3, nullptr);
  vm::RunOptions opts;
  opts.onStall = vm::OnStall::Salvage;
  const vm::RunResult res = vm::run(*m, engine, obs, opts);
  EXPECT_EQ(res.deadRanks, std::vector<int>{1});
  // The slot lookup behind "waiting for" must use the advanced base.
  for (int r : {0, 2})
    EXPECT_NE(res.stallDiagnostics.find(
                  "rank " + std::to_string(r) +
                  ": blocked in MPI_Barrier [peer=-2 tag=0 comm=0 seq=10] "
                  "at MPI call #11 — waiting for rank 1 (dead: 1)"),
              std::string::npos)
        << res.stallDiagnostics;
}

}  // namespace
}  // namespace cypress
