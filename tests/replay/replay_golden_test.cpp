// Golden SIM-MPI predictions: every workload at a small rank count,
// replayed under both LogGP presets, must reproduce these pinned numbers
// to the nanosecond. The simulator's bookkeeping (channel matching,
// request completion, collective slots) may be rebuilt freely; the
// predictions it yields may not move. A mismatch prints the table row
// the current code produces.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "replay/simulator.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace cypress::replay {
namespace {

/// 64-bit FNV-1a over the little-endian bytes of each value.
uint64_t fnv1a(const std::vector<uint64_t>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t v : values) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct Golden {
  const char* workload;
  int procs;
  bool ethernet;
  uint64_t totalEvents;
  uint64_t predictedNs;
  uint64_t clockHash;  // fnv1a(rankClockNs)
  uint64_t commHash;   // fnv1a(rankCommNs)
};

// clang-format off
constexpr Golden kGolden[] = {
    {"BT", 16, false, 5776, 40885806, 0x390474fdfa5eed25ull, 0xf35bd2df6b3eacadull},
    {"BT", 16, true, 5776, 60100494, 0x1b505f4a3fd72825ull, 0xd8f21b5cbf114714ull},
    {"CG", 16, false, 11592, 33662120, 0x309d760b75e9894full, 0x189ee4fd847dcf21ull},
    {"CG", 16, true, 11592, 80802863, 0x937c1ceb617e97ull, 0x4dfcd79274aadbcbull},
    {"DT", 12, false, 34, 3353776, 0x9485f8f5a5cc0055ull, 0xec6c7a9b81db2f19ull},
    {"DT", 12, true, 34, 6840676, 0x9db9ea737d544035ull, 0x8c0bf7c6437ca247ull},
    {"EP", 16, false, 48, 7279760, 0xdf16542ada1f3365ull, 0xaecd915993aa7565ull},
    {"EP", 16, true, 48, 7674506, 0xc810defd231c5c85ull, 0x5beb6422eb2a29c5ull},
    {"FT", 16, false, 480, 32340915, 0x200aafb5314212a5ull, 0x36ba4752c8c29125ull},
    {"FT", 16, true, 480, 67621800, 0xe45ec13ae9e81b05ull, 0x79327075a9f14e85ull},
    {"IS", 16, false, 336, 11811344, 0x12dc71db4fbc8a5ull, 0x9db5ce4f8f23df65ull},
    {"IS", 16, true, 336, 24829549, 0x82bab2ab4f090b45ull, 0xf21f7f7b990c5a5ull},
    {"JACOBI", 16, false, 3000, 7911650, 0x520ca48b1451da21ull, 0x96bf15d40d55fc44ull},
    {"JACOBI", 16, true, 3000, 10992150, 0xbeb5c8928642f52bull, 0xb72bb6d92839b27ull},
    {"LESLIE3D", 16, false, 3280, 78041025, 0xf451130bb6733a25ull, 0xd064c58fe9ceb721ull},
    {"LESLIE3D", 16, true, 3280, 80722490, 0xbd464c9b50c38ac5ull, 0xa873358a70b7a743ull},
    {"LU", 16, false, 27680, 24811058, 0x463a762a8ec670fcull, 0xca0acd0e7e05844eull},
    {"LU", 16, true, 27680, 32967354, 0x1f32eb9fd356996aull, 0xf4c8bfc37676e1cull},
    {"MG", 16, false, 2480, 11587670, 0xdfe4ddf815362225ull, 0xd5940ba253478741ull},
    {"MG", 16, true, 2480, 21797040, 0x75ce8652344ef8e5ull, 0x89217241fcc2eb5bull},
    {"SMG2000", 16, false, 2848, 1541076, 0x1f89cc3cb6bdcc85ull, 0x1f89cc3cb6bdcc85ull},
    {"SMG2000", 16, true, 2848, 8815456, 0x2cd274016a1cb0c5ull, 0x2cd274016a1cb0c5ull},
    {"SP", 16, false, 4336, 13491960, 0x8ae71899e12c2e45ull, 0x26a54c5d877d0c24ull},
    {"SP", 16, true, 4336, 16968437, 0xe8094a8b259d2805ull, 0xc786d59c9947850eull},
    {"MIXED", 6, false, 118, 128471, 0x142dbfcd3f009af9ull, 0xca9a2cc2bdf128faull},
    {"MIXED", 6, true, 118, 982254, 0xdd963283e5357325ull, 0xa43491f88711e72cull},
};
// clang-format on

std::string row(const char* w, int procs, bool eth, const Prediction& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", %d, %s, %llu, %llu, 0x%llxull, 0x%llxull},",
                w, procs, eth ? "true" : "false",
                static_cast<unsigned long long>(p.totalEvents),
                static_cast<unsigned long long>(p.predictedNs),
                static_cast<unsigned long long>(fnv1a(p.rankClockNs)),
                static_cast<unsigned long long>(fnv1a(p.rankCommNs)));
  return buf;
}

/// Replay `run` under both presets through the compressed and the
/// expanded source and compare against the pinned rows for `name`.
void expectPinned(const std::string& name, const driver::RunOutput& run) {
  const core::MergedCtt merged = driver::mergeCypress(run);
  const trace::RawTrace expanded = core::decompressAll(merged, run.procs);
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "ethernet" : "infiniband");
    const simmpi::LogGP net =
        eth ? simmpi::LogGP::ethernet() : simmpi::LogGP::infiniband();
    const Prediction p = simulate(merged, net);
    // Both event sources drive the same simulator to the same answer.
    const Prediction viaRaw = simulate(expanded, net);
    EXPECT_EQ(p.totalEvents, viaRaw.totalEvents);
    EXPECT_EQ(p.rankClockNs, viaRaw.rankClockNs);
    EXPECT_EQ(p.rankCommNs, viaRaw.rankCommNs);

    const std::string current = row(name.c_str(), run.procs, eth, p);
    const Golden* g = nullptr;
    for (const Golden& cand : kGolden)
      if (name == cand.workload && cand.ethernet == eth) g = &cand;
    if (g == nullptr) {
      ADD_FAILURE() << "no pinned row; current: " << current;
      continue;
    }
    EXPECT_EQ(g->procs, run.procs);
    EXPECT_EQ(p.totalEvents, g->totalEvents) << current;
    EXPECT_EQ(p.predictedNs, g->predictedNs) << current;
    EXPECT_EQ(fnv1a(p.rankClockNs), g->clockHash) << current;
    EXPECT_EQ(fnv1a(p.rankCommNs), g->commHash) << current;
  }
}

driver::Options cypressOnly(int procs) {
  driver::Options opts;
  opts.procs = procs;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  return opts;
}

class ReplayGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayGolden, PredictionsMatchPinnedValues) {
  const std::string w = GetParam();
  expectPinned(w, driver::runWorkload(w, cypressOnly(w == "DT" ? 12 : 16)));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ReplayGolden,
                         ::testing::ValuesIn(workloads::allNames()),
                         [](const auto& info) { return info.param; });

TEST(ReplayGolden, EveryOpKindMatchesPinnedValues) {
  // The workloads use blocking and non-blocking p2p, Waitall and world
  // collectives only. This program adds what they leave out: wildcard
  // Recv, wildcard Irecv + Wait, Waitany, Waitsome, a wildcard inside a
  // Waitall, and every collective on split (and partly unassigned)
  // communicators.
  const char* src = R"(
    func main() {
      if (rank == 0) {
        for (var i = 1; i < size; i = i + 1) { mpi_recv(ANY_SOURCE, 64, 1); }
      } else {
        compute(rank * 7000);
        mpi_send(0, 64, 1);
      }
      if (rank == 1) {
        var w = mpi_irecv(ANY_SOURCE, 32, 2);
        compute(5000);
        mpi_wait(w);
      }
      if (rank == 2) { mpi_send(1, 32, 2); }
      var a = mpi_isend((rank + 1) % size, 512, 3);
      var b = mpi_irecv((rank + size - 1) % size, 512, 3);
      mpi_waitany();
      mpi_waitsome();
      if (rank == 3) {
        var x = mpi_irecv(ANY_SOURCE, 128, 4);
        var y = mpi_irecv(5, 256, 6);
        mpi_waitall();
      }
      if (rank == 4) { compute(3000); mpi_send(3, 128, 4); }
      if (rank == 5) { mpi_send(3, 256, 6); }
      var c = mpi_comm_split(rank % 2, rank);
      mpi_bcast_c(c, 0, 4096);
      mpi_reduce_c(c, 0, 1024);
      mpi_allgather_c(c, 256);
      mpi_alltoall_c(c, 128);
      mpi_gather_c(c, 0, 64);
      mpi_scatter_c(c, 0, 64);
      mpi_scan_c(c, 32);
      mpi_barrier_c(c);
      var color = 0 - 1;
      if (rank < 4) { color = 0; }
      var d = mpi_comm_split(color, rank);
      if (rank < 4) { mpi_allreduce_c(d, 8); }
      mpi_allreduce(16);
      mpi_barrier();
    })";
  expectPinned("MIXED", driver::runSource("MIXED", src, cypressOnly(6)));
}

TEST(ReplayGolden, DeadlockMessageNamesEveryBlockedRank) {
  // Rank 0 and rank 1 each wait for a message the other never sends;
  // rank 2 finishes. The diagnostic lists the blocked ranks in order
  // with their event index and the event itself.
  trace::RawTrace t;
  t.ranks.resize(3);
  trace::Event send;
  send.op = ir::MpiOp::Send;
  send.peer = 2;
  send.bytes = 16;
  send.tag = 3;
  send.callSiteId = 4;
  trace::Event recv;
  recv.op = ir::MpiOp::Recv;
  recv.bytes = 8;
  recv.tag = 7;
  recv.callSiteId = 9;
  recv.peer = 1;
  t.ranks[0].events = {recv};
  recv.peer = 0;
  t.ranks[1].events = {send, recv};
  trace::Event fromOne = recv;
  fromOne.peer = 1;
  fromOne.tag = 3;
  fromOne.bytes = 16;
  t.ranks[2].events = {fromOne};
  try {
    simulate(t);
    FAIL() << "expected a deadlock";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "replay deadlock:"
              " rank 0 at event 0 (MPI_Recv peer=1 bytes=8 tag=7 comm=0 site=9)"
              " rank 1 at event 1 (MPI_Recv peer=0 bytes=8 tag=7 comm=0 site=9)");
  }
}

}  // namespace
}  // namespace cypress::replay
