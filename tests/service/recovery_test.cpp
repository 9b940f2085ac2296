// Crash-recovery tests for the cyptraced job ledger and daemon.
//
// Two layers. In-process: the CYL1 ledger salvage is exercised against
// seeded corruption — recovery never crashes (truncation and bit flips
// at every byte are the CYL1 case of integration/segment_log_test.cpp).
// Out-of-process: the kill matrix SIGKILLs a real `cyptraced serve` at
// deterministic ledger-segment counts mid-job (the
// --crash-after-segments hook), restarts it with --recover, and
// requires every journaled job to reach a terminal state with artifacts
// that still verify.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <thread>

#include "integration/log_samples.hpp"
#include "service/client.hpp"
#include "service/ledger.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "verify/fuzz.hpp"
#include "verify/roundtrip.hpp"

#ifndef CYPTRACED_BIN
#error "CYPTRACED_BIN must point at the cyptraced binary"
#endif

namespace cypress::service {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(LedgerRecovery, StrictParserHoldsTheDeserializerContract) {
  const std::string dir = freshDir("cyp_ledger_fuzz");
  samples::writeLedger(dir + "/sample.cyl");
  const auto good = fileBytes(dir + "/sample.cyl");

  verify::FuzzOptions fo;
  fo.seed = 0x1ED6E4;
  fo.mutations = 500;
  const auto rep = verify::corruptionFuzz(
      good, [](std::span<const uint8_t> b) { parseLedger(b); }, fo);
  EXPECT_TRUE(rep.ok()) << rep.toString();

  // The lenient salvage must digest the same mutants without ever
  // throwing past a valid header (and without crashing on any input).
  Rng rng(0x1ED6E5);
  for (int i = 0; i < 500; ++i) {
    auto mutant = good;
    mutant[rng.below(mutant.size())] ^=
        static_cast<uint8_t>(1u << rng.below(8));
    try {
      recoverLedger(mutant);
    } catch (const cypress::Error&) {
      // acceptable only for a damaged header
    }
  }
}

// --- kill matrix -----------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  std::string socket;
  std::string spool;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { killNow(); }  // no leaked daemons on assertion failure

  static std::unique_ptr<Daemon> spawn(const std::string& spool,
                                       const std::string& socket,
                                       uint64_t crashAfterSegments,
                                       bool recover) {
    auto d = std::make_unique<Daemon>();
    d->socket = socket;
    d->spool = spool;
    d->pid = fork();
    if (d->pid == 0) {
      const std::string crash = std::to_string(crashAfterSegments);
      if (recover) {
        execl(CYPTRACED_BIN, "cyptraced", "serve", "--socket", socket.c_str(),
              "--spool", spool.c_str(), "--recover", "--deadline", "60000",
              (char*)nullptr);
      } else {
        execl(CYPTRACED_BIN, "cyptraced", "serve", "--socket", socket.c_str(),
              "--spool", spool.c_str(), "--crash-after-segments",
              crash.c_str(), "--deadline", "60000", (char*)nullptr);
      }
      _exit(127);
    }
    return d;
  }

  /// Wait until the daemon accepts connections (it unlinks + binds the
  /// socket before listening, so existence is enough).
  bool waitReady(int timeoutMs = 20'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
      if (fs::exists(socket)) return true;
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) return false;  // died early
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  int await() {
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }

  void killNow() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      await();
    }
  }
};

/// Connect with retries: the daemon's socket file appears at bind()
/// time, a moment before listen(), so the first attempt can see
/// ECONNREFUSED on a perfectly healthy daemon.
std::unique_ptr<Client> connectRetry(const std::string& socket,
                                     int timeoutMs = 20'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (true) {
    try {
      return std::make_unique<Client>(socket);
    } catch (const cypress::Error&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

JobSpec matrixSpec() {
  JobSpec spec;
  spec.kind = JobKind::Run;
  spec.target = "JACOBI";
  spec.procs = 4;
  return spec;
}

TEST(KillMatrix, SigkillAtEverySeededPointThenRecoverToTerminal) {
  // Segment counts covering every phase of a two-job lifecycle:
  // 1 = after job 1's durable SUBMIT, 2 = after its RUNNING transition,
  // 3-4 = around its DONE / job 2's SUBMIT, 5 = mid second job.
  for (uint64_t crashAt : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("crash after segment " + std::to_string(crashAt));
    const std::string spool =
        freshDir("cyp_killmatrix_" + std::to_string(crashAt));
    const std::string socket = spool + "/d.sock";

    auto d = Daemon::spawn(spool, socket, crashAt, /*recover=*/false);
    ASSERT_TRUE(d->waitReady());

    // Submit two jobs; the daemon may die mid-conversation at any
    // point, which surfaces to the client as cypress::Error — that is
    // part of the contract under test (client sees a clean error, the
    // ledger keeps the truth).
    size_t submitted = 0;
    try {
      auto client = connectRetry(socket);
      for (int i = 0; i < 2; ++i) {
        const Response r = client->submit(matrixSpec());
        if (r.code == ResponseCode::Accepted) ++submitted;
      }
      // Drive until the crash hook fires (both jobs finishing without
      // a crash would be a test bug — segment counts above are all
      // reachable before the second DONE).
      while (true) {
        client->list();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    } catch (const cypress::Error&) {
      // expected: the daemon was SIGKILLed under us
    }

    const int status = d->await();
    ASSERT_TRUE(WIFSIGNALED(status)) << "daemon exited instead of dying";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The ledger survived the kill: salvage must find every accepted
    // job (durable SUBMIT precedes the Accepted response).
    const auto rec = recoverLedgerFile(spool + "/jobs.cyl");
    ASSERT_GE(rec.jobs.size(), submitted);

    // Restart with --recover: every journaled job must reach a
    // terminal state.
    auto d2 = Daemon::spawn(spool, socket, 0, /*recover=*/true);
    ASSERT_TRUE(d2->waitReady());
    {
      auto client = connectRetry(socket);
      for (const LedgerJob& lj : rec.jobs) {
        const auto st = client->wait(lj.id, 120'000);
        ASSERT_TRUE(st.has_value()) << "job " << lj.id << " lost in recovery";
        EXPECT_TRUE(isTerminal(st->state))
            << "job " << lj.id << " stuck in " << toString(st->state);
        if (st->state == JobState::Done) {
          ASSERT_TRUE(fs::exists(st->artifactPath)) << st->artifactPath;
          const auto rep = verify::verifyTraceFile(fileBytes(st->artifactPath));
          EXPECT_TRUE(rep.ok()) << rep.toString();
        }
      }
      client->shutdown();
    }
    const int status2 = d2->await();
    EXPECT_TRUE(WIFEXITED(status2) && WEXITSTATUS(status2) == 0)
        << "recovered daemon did not shut down cleanly";
  }
}

TEST(KillMatrix, TornJournalIsRenamedForSalvage) {
  // Crash right after a RUNNING transition (segment 2): the job's
  // streamed journal is a torn .partial. Recovery must rename it to
  // .salvage so `cyptrace recover` can mine it, and the re-run must
  // still produce a fresh, valid artifact.
  const std::string spool = freshDir("cyp_killmatrix_journal");
  const std::string socket = spool + "/d.sock";

  auto d = Daemon::spawn(spool, socket, 2, /*recover=*/false);
  ASSERT_TRUE(d->waitReady());
  try {
    auto client = connectRetry(socket);
    client->submit(matrixSpec());
    while (true) {
      client->list();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  } catch (const cypress::Error&) {
  }
  const int status = d->await();
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  auto d2 = Daemon::spawn(spool, socket, 0, /*recover=*/true);
  ASSERT_TRUE(d2->waitReady());
  {
    auto client = connectRetry(socket);
    const auto st = client->wait(1, 120'000);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Done) << st->detail;
    EXPECT_FALSE(fs::exists(spool + "/job-1.cyj.partial"))
        << "torn journal left under its in-progress name";
    const auto rep = verify::verifyTraceFile(fileBytes(st->artifactPath));
    EXPECT_TRUE(rep.ok()) << rep.toString();
    client->shutdown();
  }
  d2->await();
}

}  // namespace
}  // namespace cypress::service
