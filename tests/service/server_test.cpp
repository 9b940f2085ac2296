// JobServer integration tests: concurrent admission → dispatch →
// watchdog → retry → terminal state, against the real tracing pipeline.
//
// The acceptance scenario from the service design: eight concurrent
// jobs, half of them faulted (kill / drop / drop-transient), must all
// reach a terminal state within their deadlines with the right
// outcome, and a surviving job's artifact must be byte-identical to
// what the single-job CLI path produces.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "driver/pipeline.hpp"
#include "query/query.hpp"
#include "service/server.hpp"
#include "support/thread_pool.hpp"
#include "verify/roundtrip.hpp"

namespace cypress::service {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

JobSpec runSpec(uint32_t scale = 1) {
  JobSpec s;
  s.kind = JobKind::Run;
  s.target = "JACOBI";
  s.procs = 4;
  s.scale = scale;
  return s;
}

TEST(Server, EightConcurrentJobsHalfFaultedAllTerminal) {
  ThreadPool::configureShared(4);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_eight");
  cfg.queueCapacity = 16;
  cfg.maxConcurrent = 4;
  cfg.perClientCap = 16;
  cfg.defaultDeadlineMs = 120'000;
  cfg.backoffBaseMs = 5;
  cfg.backoffCapMs = 50;
  JobServer server(cfg);
  server.start();

  // Four clean jobs...
  std::vector<uint64_t> clean;
  for (uint32_t i = 0; i < 4; ++i) {
    const auto r = server.submit(runSpec(1 + i % 2), /*clientId=*/1);
    ASSERT_TRUE(r.accepted) << r.message;
    clean.push_back(r.jobId);
  }
  // ...and four faulted ones: two rank kills (graceful degradation →
  // DONE with survivors' artifact), one persistent message drop (stalls
  // every attempt → FAILED after the attempt budget), one transient
  // drop (stalls only on attempt 1 → DONE on the retry).
  //
  // The kills use a program whose survivors never wait on the dead
  // rank: rank 0 consumes only the first four of rank 1's eight sends,
  // so a kill at rank 1's fifth call or later degrades instead of
  // stalling (a mid-loop JACOBI kill stalls the neighbours, which is
  // the Transient class, not this one).
  JobSpec killA = runSpec();
  killA.target = "fire-and-forget";
  killA.sourceText = R"(
    func main() {
      if (rank == 1) {
        for (var i = 0; i < 8; i = i + 1) { mpi_send(0, 64, i); }
      }
      if (rank == 0) {
        for (var i = 0; i < 4; i = i + 1) { mpi_recv(1, 64, i); }
      }
    })";
  killA.faultSpecs = {"kill:1@5"};
  JobSpec killB = killA;
  killB.faultSpecs = {"kill:1@7"};
  JobSpec dropForever = runSpec();
  dropForever.faultSpecs = {"drop:1@3"};
  dropForever.maxAttempts = 2;
  JobSpec dropOnce = runSpec();
  dropOnce.faultSpecs = {"drop:0@4"};
  dropOnce.faultsTransient = true;
  dropOnce.maxAttempts = 3;

  const uint64_t idKillA = server.submit(killA, 1).jobId;
  const uint64_t idKillB = server.submit(killB, 1).jobId;
  const uint64_t idDropForever = server.submit(dropForever, 1).jobId;
  const uint64_t idDropOnce = server.submit(dropOnce, 1).jobId;
  ASSERT_NE(idDropOnce, 0u);

  // Every job must reach a terminal state well within its deadline.
  for (uint64_t id = 1; id <= 8; ++id) {
    const auto st = server.wait(id, 120'000);
    ASSERT_TRUE(st.has_value()) << "job " << id;
    EXPECT_TRUE(isTerminal(st->state))
        << "job " << id << " stuck in " << toString(st->state);
  }

  for (uint64_t id : clean) {
    const auto st = server.status(id);
    EXPECT_EQ(st->state, JobState::Done) << st->detail;
    EXPECT_EQ(st->attempts, 1u);
    EXPECT_GT(st->artifactBytes, 0u);
    EXPECT_TRUE(fs::exists(st->artifactPath));
  }
  for (uint64_t id : {idKillA, idKillB}) {
    const auto st = server.status(id);
    EXPECT_EQ(st->state, JobState::Done) << st->detail;
    EXPECT_NE(st->detail.find("killed ranks"), std::string::npos) << st->detail;
    // The degraded artifact still verifies: survivors only, but valid.
    const auto rep = verify::verifyTraceFile(fileBytes(st->artifactPath));
    EXPECT_TRUE(rep.ok()) << rep.toString();
  }
  {
    const auto st = server.status(idDropForever);
    EXPECT_EQ(st->state, JobState::Failed) << st->detail;
    EXPECT_EQ(st->attempts, 2u);
    EXPECT_NE(st->detail.find("transient failure"), std::string::npos)
        << st->detail;
  }
  {
    const auto st = server.status(idDropOnce);
    EXPECT_EQ(st->state, JobState::Done) << st->detail;
    EXPECT_EQ(st->attempts, 2u) << "fault was transient: retry must succeed";
  }

  const Counters c = server.counters();
  EXPECT_EQ(c.submitted, 8u);
  EXPECT_EQ(c.accepted, 8u);
  EXPECT_EQ(c.done, 7u);
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.retries, 2u);  // dropForever attempt 2, dropOnce attempt 2
  server.stop();
}

TEST(Server, ArtifactByteIdenticalToDirectPipelineRun) {
  ThreadPool::configureShared(4);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_ident");
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(2), 1);
  ASSERT_TRUE(r.accepted);
  const auto st = server.wait(r.jobId, 120'000);
  ASSERT_EQ(st->state, JobState::Done) << st->detail;

  // The single-job reference path, same knobs the daemon uses.
  driver::Options opts;
  opts.procs = 4;
  opts.scale = 2;
  opts.threads = cfg.threadsPerJob;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.withJournal = true;
  opts.onStall = vm::OnStall::Salvage;
  const auto run = driver::runWorkload("JACOBI", opts);
  const auto reference =
      driver::mergeCypress(run, nullptr, cfg.threadsPerJob).serialize();

  EXPECT_EQ(fileBytes(st->artifactPath), reference)
      << "daemon artifact diverged from the direct pipeline";
  // The job records no raw trace; its DONE detail must still report the
  // raw trace's event count, in the same words.
  EXPECT_EQ(st->detail, "traced " + std::to_string(run.raw.totalEvents()) +
                            " events on 4 ranks");
  server.stop();
}

TEST(Server, QueryJobAnswersFromTheCompressedArtifact) {
  ThreadPool::configureShared(4);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_query");
  JobServer server(cfg);
  server.start();

  // Produce a trace artifact with a Run job, then query it in place.
  const auto run = server.submit(runSpec(1), 1);
  ASSERT_TRUE(run.accepted);
  const auto ranSt = server.wait(run.jobId, 120'000);
  ASSERT_EQ(ranSt->state, JobState::Done) << ranSt->detail;

  JobSpec q;
  q.kind = JobKind::Query;
  q.target = ranSt->artifactPath;
  q.querySpec = "matrix";
  const auto qr = server.submit(q, 1);
  ASSERT_TRUE(qr.accepted) << qr.message;
  const auto qSt = server.wait(qr.jobId, 120'000);
  ASSERT_EQ(qSt->state, JobState::Done) << qSt->detail;
  EXPECT_GT(qSt->artifactBytes, 0u);

  // The artifact is exactly the library answer for the same trace.
  cst::Tree tree;
  const auto m =
      core::MergedCtt::deserializeWithTree(fileBytes(q.target), tree);
  const std::string want = query::runQuery(m, "matrix");
  const auto got = fileBytes(qSt->artifactPath);
  EXPECT_EQ(std::string(got.begin(), got.end()), want);

  // A malformed spec is a permanent failure, not a daemon crash.
  JobSpec bad = q;
  bad.querySpec = "bogus";
  const auto br = server.submit(bad, 1);
  ASSERT_TRUE(br.accepted);
  const auto bSt = server.wait(br.jobId, 120'000);
  EXPECT_EQ(bSt->state, JobState::Failed);
  EXPECT_NE(bSt->detail.find("unknown query kind"), std::string::npos)
      << bSt->detail;
  server.stop();
}

TEST(Server, WatchdogExpiresDeadlineIntoTerminalFailed) {
  ThreadPool::configureShared(2);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_watchdog");
  cfg.watchdogPollMs = 1;
  JobServer server(cfg);
  server.start();

  // A deliberately over-long run against a 1 ms deadline: the watchdog
  // must cancel it cooperatively, and with a budget of one attempt the
  // job lands in FAILED with the deadline diagnostic — the server
  // itself stays healthy.
  JobSpec slow = runSpec(/*scale=*/64);
  slow.deadlineMs = 1;
  slow.maxAttempts = 1;
  const auto r = server.submit(slow, 1);
  ASSERT_TRUE(r.accepted);
  const auto st = server.wait(r.jobId, 120'000);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::Failed) << st->detail;
  EXPECT_NE(st->detail.find("deadline exceeded"), std::string::npos)
      << st->detail;

  // The server survived: a follow-up job runs to completion.
  const auto r2 = server.submit(runSpec(), 1);
  ASSERT_TRUE(r2.accepted);
  EXPECT_EQ(server.wait(r2.jobId, 120'000)->state, JobState::Done);
  server.stop();
}

TEST(Server, RetryBacksOffBeforeSecondAttempt) {
  ThreadPool::configureShared(2);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_backoff");
  cfg.backoffBaseMs = 200;
  cfg.backoffCapMs = 1'000;
  JobServer server(cfg);
  server.start();

  JobSpec spec = runSpec();
  spec.faultSpecs = {"drop:1@3"};
  spec.faultsTransient = true;
  spec.maxAttempts = 3;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = server.submit(spec, 1);
  ASSERT_TRUE(r.accepted);
  const auto st = server.wait(r.jobId, 120'000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  EXPECT_EQ(st->state, JobState::Done) << st->detail;
  EXPECT_EQ(st->attempts, 2u);
  // The second attempt sat behind the backoff gate for at least the
  // base delay (jitter only adds).
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_EQ(server.counters().retries, 1u);
  server.stop();
}

TEST(Server, CancelStopsARunningJob) {
  ThreadPool::configureShared(2);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_cancel");
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(/*scale=*/64), 1);
  ASSERT_TRUE(r.accepted);
  // Wait until the attempt body is actually executing.
  for (int i = 0; i < 1000; ++i) {
    const auto st = server.status(r.jobId);
    if (st->state == JobState::Running) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(server.cancel(r.jobId));
  const auto st = server.wait(r.jobId, 120'000);
  EXPECT_EQ(st->state, JobState::Cancelled) << st->detail;
  EXPECT_FALSE(server.cancel(r.jobId)) << "terminal jobs refuse cancel";
  server.stop();
}

TEST(Server, CompiledProgramSharedAcrossJobs) {
  ThreadPool::configureShared(2);
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_cache");
  JobServer server(cfg);
  server.start();

  for (int i = 0; i < 3; ++i) {
    const auto r = server.submit(runSpec(1), 1);
    ASSERT_TRUE(r.accepted);
    ASSERT_EQ(server.wait(r.jobId, 120'000)->state, JobState::Done);
  }
  const Counters c = server.counters();
  EXPECT_EQ(c.cacheMisses, 1u) << "static phase must run once per program";
  EXPECT_EQ(c.cacheHits, 2u);
  server.stop();
}

}  // namespace
}  // namespace cypress::service
