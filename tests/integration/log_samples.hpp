// Fixed sample logs shared by the golden-bytes, sweep and fuzz tests:
// a CYJ1 journal, a CYM1 manifest and a CYL1 ledger, each exercising
// every segment kind of its format. The golden-bytes test pins their
// exact bytes, so changing a sample means updating its constant.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cypress/spill.hpp"
#include "service/ledger.hpp"
#include "trace/journal.hpp"

namespace cypress::samples {

/// A scratch directory private to this test process (ctest runs each
/// case as its own process, possibly in parallel).
inline std::string freshDir(const std::string& name) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

inline std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

inline void writeBytes(const std::string& path,
                       std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline trace::Event event(int site, int64_t bytes) {
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

/// EVENTS, FINALIZE and SEAL segments for a 3-rank journal whose rank 1
/// is declared lost.
inline void fillJournal(trace::JournalBuilder& b) {
  const std::vector<trace::Event> r0 = {event(1, 64), event(2, 128)};
  const std::vector<trace::Event> r2 = {event(4, 32)};
  b.appendEvents(0, r0);
  b.appendEvents(2, r2);
  b.appendFinalize(0);
  b.appendFinalize(2);
  RankSet lost;
  lost.insert(1);
  b.seal(lost);
}

inline core::MergePlanKey manifestKey() {
  core::MergePlanKey key;
  key.numRanks = 16;
  key.budgetBytes = 1 << 20;
  key.maxBatchRanks = 3;
  return key;
}

/// BATCH, degraded BATCH, MERGE and FINAL segments under manifestKey().
inline void writeManifest(io::IoBackend& be, const std::string& path) {
  core::ManifestWriter w(be, path, manifestKey());
  core::BatchRecord b;
  b.batchIndex = 0;
  b.firstRank = 0;
  b.rankCount = 3;
  b.file = "b0.cysp";
  b.fileBytes = 777;
  b.fileCrc = 0xdeadbeef;
  w.appendBatch(b);
  b.batchIndex = 1;  // a degraded batch: no file, its ranks lost
  b.firstRank = 3;
  b.file.clear();
  b.fileBytes = 0;
  b.fileCrc = 0;
  b.lostRanks.insert(3);
  b.lostRanks.insert(4);
  b.lostRanks.insert(5);
  w.appendBatch(b);
  core::MergeRecord m;
  m.round = 0;
  m.pairIndex = 0;
  m.file = "r0-p0.cysp";
  m.fileBytes = 123;
  m.fileCrc = 42;
  w.appendMerge(m);
  core::FinalRecord f;
  f.outPath = "out.cyp";
  f.bytes = 999;
  f.crc = 7;
  w.appendFinal(f);
}

/// Two submits, a full lifecycle for job 1 and a retry for job 2.
inline void writeLedger(const std::string& path) {
  service::LedgerWriter w(path);
  service::JobSpec spec;
  spec.kind = service::JobKind::Run;
  spec.target = "JACOBI";
  spec.procs = 4;
  spec.faultSpecs = {"drop:1@3"};
  w.appendSubmit(1, 7, spec);
  w.appendSubmit(2, 7, spec);
  w.appendState(1, service::JobState::Running, 1, "attempt 1 of 3", "", "");
  w.appendState(1, service::JobState::Done, 1, "traced 96 events",
                "spool/job-1.cyp", "spool/job-1.cyj");
  w.appendState(2, service::JobState::Running, 1, "attempt 1 of 3", "", "");
  w.appendState(2, service::JobState::Accepted, 1, "transient failure", "",
                "");
}

}  // namespace cypress::samples
