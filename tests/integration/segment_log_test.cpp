// Damage sweeps over every segment-log format (flate/seglog.hpp).
//
// One parametrized suite cuts each sample log at every byte and flips
// one bit of every byte in turn, then checks the contract of that
// format:
//
//   CYJ1  salvage yields per-rank events that are a prefix of the
//         undamaged journal's — never invented events;
//   CYSP  the strict reader rejects the file and spillIntact says no,
//         so the resume path recomputes the spill;
//   CYM1, CYL1  salvage, truncate the torn tail, resume appending, and
//         the result strict-parses.
//
// Damage inside the header must follow the one torn-header rule: a
// file that ends inside its header is reset to empty, and any other
// header failure is refused.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "cypress/spill.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "integration/log_samples.hpp"
#include "service/ledger.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/journal.hpp"

namespace cypress {
namespace {

using samples::fileBytes;
using samples::writeBytes;

/// How the sample was damaged: cut to `at` bytes, or byte `at` flipped.
struct Damage {
  bool cut = false;
  size_t at = 0;
};

std::ostream& operator<<(std::ostream& os, const Damage& d) {
  return os << (d.cut ? "cut to " : "flip at ") << d.at;
}

/// One format under the sweep: a sample log and its contract.
class SweptLog {
 public:
  virtual ~SweptLog() = default;
  /// The undamaged sample.
  virtual const std::vector<uint8_t>& sample() const = 0;
  /// Bytes of the header, which damage may turn into a refusal.
  virtual size_t headerBytes() const = 0;
  /// Assert the format's contract on the damaged sample.
  virtual void check(std::span<const uint8_t> bytes, const Damage& d) = 0;
};

class JournalLog final : public SweptLog {
 public:
  JournalLog() {
    driver::Options opts;
    opts.procs = 8;
    opts.withScala = false;
    opts.withScala2 = false;
    opts.withJournal = true;
    opts.journalFlushEvery = 4;  // many small segments → many torn points
    good_ = driver::runWorkload("CG", opts).journal->bytes();
    full_ = trace::recoverJournal(good_);
  }
  const std::vector<uint8_t>& sample() const override { return good_; }
  size_t headerBytes() const override { return 6; }  // "CYJ1", 8 ranks

  void check(std::span<const uint8_t> bytes, const Damage& d) override {
    ASSERT_TRUE(full_.sealed);
    trace::JournalRecovery rec;
    try {
      rec = trace::recoverJournal(bytes);
    } catch (const Error&) {
      ASSERT_LT(d.at, headerBytes()) << d << ": refused past the header";
      return;
    }
    if (d.cut) {
      ASSERT_FALSE(rec.sealed) << d << ": claims to be sealed";
    }
    ASSERT_LE(rec.bytesDiscarded, bytes.size());
    // A flipped rank count changes how many ranks there are; the ranks
    // both have in common must still hold prefixes.
    const size_t ranks =
        std::min(rec.trace.ranks.size(), full_.trace.ranks.size());
    for (size_t r = 0; r < ranks; ++r) {
      const auto& got = rec.trace.ranks[r].events;
      const auto& want = full_.trace.ranks[r].events;
      ASSERT_TRUE(got.size() <= want.size() &&
                  std::equal(got.begin(), got.end(), want.begin()))
          << d << ": rank " << r << " events are not a prefix";
    }
  }

 private:
  std::vector<uint8_t> good_;
  trace::JournalRecovery full_;
};

class SpillLog final : public SweptLog {
 public:
  SpillLog() : dir_(samples::freshDir("cyp_sweep_cysp")) {
    data_.resize(2048);
    Rng rng(11);
    for (auto& b : data_) b = static_cast<uint8_t>(rng.next());
    core::writeSpill(io::realIo(), dir_ + "/good.cysp", data_);
    good_ = fileBytes(dir_ + "/good.cysp");
  }
  const std::vector<uint8_t>& sample() const override { return good_; }
  size_t headerBytes() const override { return 6; }  // "CYSP", version

  void check(std::span<const uint8_t> bytes, const Damage& d) override {
    // No prefix of a checkpoint is worth salvaging: only "complete" or
    // "recompute".
    EXPECT_THROW(core::parseSpill(bytes), Error) << d;
    const std::string torn = dir_ + "/torn.cysp";
    writeBytes(torn, bytes);
    EXPECT_FALSE(core::spillIntact(io::realIo(), torn, data_.size(),
                                   flate::crc32(data_)))
        << d;
  }

 private:
  std::string dir_;
  std::vector<uint8_t> data_;
  std::vector<uint8_t> good_;
};

/// CYM1 and CYL1 share one contract over different record types.
class ResumableLog : public SweptLog {
 public:
  const std::vector<uint8_t>& sample() const override { return good_; }

  void check(std::span<const uint8_t> bytes, const Damage& d) override {
    writeBytes(path_, bytes);
    size_t discarded = 0;
    bool resumable = false;
    try {
      resumable = recover(&discarded);
    } catch (const Error&) {
      // Refusal is for a damaged, complete header only.
      ASSERT_FALSE(d.cut) << d << ": a cut file was refused";
      ASSERT_LT(d.at, headerBytes()) << d << ": refused past the header";
      return;
    }
    const uint64_t size = io::realIo().fileSize(path_);
    if (!resumable) {
      // Torn header: reset to empty for a fresh writer.
      ASSERT_TRUE(d.cut && d.at < headerBytes()) << d;
      ASSERT_EQ(size, 0u) << d;
      return;
    }
    ASSERT_EQ(size, bytes.size() - discarded) << d << ": tail not truncated";
    // Whatever survived must accept further appends and strict-parse.
    resumeAndAppend();
    ASSERT_NO_THROW(parseStrict(fileBytes(path_))) << d;
  }

 protected:
  /// Salvage the file at path_; false when there is nothing to resume.
  virtual bool recover(size_t* discarded) = 0;
  virtual void resumeAndAppend() = 0;
  virtual void parseStrict(std::span<const uint8_t> bytes) = 0;

  std::string path_;
  std::vector<uint8_t> good_;
};

class ManifestLog final : public ResumableLog {
 public:
  ManifestLog() {
    const std::string dir = samples::freshDir("cyp_sweep_cym");
    samples::writeManifest(io::realIo(), dir + "/good.cym");
    good_ = fileBytes(dir + "/good.cym");
    path_ = dir + "/torn.cym";
  }
  // "CYM1", version, numRanks 16, budget 1 MiB, batch cap 3.
  size_t headerBytes() const override { return 11; }

 protected:
  bool recover(size_t* discarded) override {
    rec_ = core::recoverManifestFile(io::realIo(), path_);
    if (rec_) *discarded = rec_->bytesDiscarded;
    return rec_.has_value();
  }
  void resumeAndAppend() override {
    // Nothing appends after FINAL: the merge is complete.
    if (rec_->final) return;
    core::ManifestWriter w(io::realIo(), path_, rec_->key, /*resume=*/true);
    core::MergeRecord m;
    m.round = 9;
    m.pairIndex = 9;
    m.file = "r9-p9.cysp";
    w.appendMerge(m);
  }
  void parseStrict(std::span<const uint8_t> bytes) override {
    core::parseManifest(bytes);
  }

 private:
  std::optional<core::ManifestRecovery> rec_;
};

class LedgerLog final : public ResumableLog {
 public:
  LedgerLog() {
    const std::string dir = samples::freshDir("cyp_sweep_cyl");
    samples::writeLedger(dir + "/good.cyl");
    good_ = fileBytes(dir + "/good.cyl");
    path_ = dir + "/torn.cyl";
  }
  size_t headerBytes() const override { return 6; }  // "CYL1", version

 protected:
  bool recover(size_t* discarded) override {
    const service::LedgerRecovery rec = service::recoverLedgerFile(path_);
    *discarded = rec.bytesDiscarded;
    maxJobId_ = rec.maxJobId;
    // A ledger reset to empty reads as an empty recovery.
    return io::realIo().fileSize(path_) > 0;
  }
  void resumeAndAppend() override {
    // A full new job lifecycle on top of whatever survived.
    service::LedgerWriter w(path_, /*resume=*/true);
    service::JobSpec spec;
    spec.target = "JACOBI";
    const uint64_t id = maxJobId_ + 1;
    w.appendSubmit(id, 9, spec);
    w.appendState(id, service::JobState::Cancelled, 1, "swept", "", "");
  }
  void parseStrict(std::span<const uint8_t> bytes) override {
    service::parseLedger(bytes);
  }

 private:
  uint64_t maxJobId_ = 0;
};

struct LogCase {
  const char* name;
  std::function<std::unique_ptr<SweptLog>()> make;
};

void PrintTo(const LogCase& c, std::ostream* os) { *os << c.name; }

class SegmentLogSweep : public ::testing::TestWithParam<LogCase> {};

TEST_P(SegmentLogSweep, TruncationAtEveryByte) {
  const auto log = GetParam().make();
  const std::vector<uint8_t>& good = log->sample();
  for (size_t len = 0; len < good.size(); ++len) {
    log->check(std::span<const uint8_t>(good.data(), len), {true, len});
    if (HasFatalFailure()) return;
  }
}

TEST_P(SegmentLogSweep, BitFlipAtEveryByte) {
  const auto log = GetParam().make();
  const std::vector<uint8_t>& good = log->sample();
  for (size_t pos = 0; pos < good.size(); ++pos) {
    auto bad = good;
    bad[pos] ^= static_cast<uint8_t>(1u << (pos % 8));  // every bit lane
    log->check(bad, {false, pos});
    if (HasFatalFailure()) return;
  }
}

template <class Log>
LogCase logCase(const char* name) {
  return {name, [] { return std::make_unique<Log>(); }};
}

INSTANTIATE_TEST_SUITE_P(
    Formats, SegmentLogSweep,
    ::testing::Values(logCase<JournalLog>("CYJ1"), logCase<SpillLog>("CYSP"),
                      logCase<ManifestLog>("CYM1"),
                      logCase<LedgerLog>("CYL1")),
    [](const ::testing::TestParamInfo<LogCase>& info) {
      return std::string(info.param.name);
    });

// --- the torn-header rule ----------------------------------------------

TEST(TornHeaderRule, CompleteManifestHeaderWithUnsupportedVersionIsRefused) {
  // A whole CYM1 header whose version this build does not read is a
  // file someone else wrote: refuse it, never truncate it to empty.
  const std::string path = samples::freshDir("cyp_cym_version") + "/m.cym";
  ByteWriter w;
  w.str("CYM1");
  w.uv(2);  // version
  w.uv(16);
  w.uv(1 << 20);
  w.uv(3);
  writeBytes(path, w.bytes());
  EXPECT_THROW(core::recoverManifestFile(io::realIo(), path), Error);
  EXPECT_EQ(fileBytes(path), w.bytes());
}

TEST(TornHeaderRule, CompleteLedgerHeaderWithUnsupportedVersionIsRefused) {
  const std::string path = samples::freshDir("cyp_cyl_version") + "/j.cyl";
  ByteWriter w;
  w.str("CYL1");
  w.uv(3);  // version
  writeBytes(path, w.bytes());
  EXPECT_THROW(service::recoverLedgerFile(path), Error);
  EXPECT_EQ(fileBytes(path), w.bytes());
}

}  // namespace
}  // namespace cypress
