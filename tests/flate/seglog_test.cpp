// Unit tests of the segment log itself, on a toy format: header
// reading and the torn-header rule, the strict and salvage walks, the
// durable Appender and recoverFile. The real formats are covered by
// integration/segment_log_test.cpp and the golden-bytes test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "flate/seglog.hpp"
#include "support/error.hpp"

namespace cypress::seglog {
namespace {

constexpr Format kToy{"TOY1", "toy", 1, 2, "pass --resume"};

std::vector<uint8_t> toyLog() {
  ByteWriter w;
  writeHeader(w, kToy, {7, 300});
  const std::vector<uint8_t> a = {1, 2, 3}, b = {4};
  encode(w, 0, a);
  encode(w, 1, b);
  return w.take();
}

std::string tmpPath(const std::string& name) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() /
                   ("cyp_seglog." + std::to_string(getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / name).string();
  fs::remove(path);
  return path;
}

TEST(Seglog, HeaderRoundtrip) {
  const auto log = toyLog();
  ByteReader r(log);
  EXPECT_EQ(readHeader(r, kToy), (std::vector<uint64_t>{7, 300}));
}

TEST(Seglog, EveryStrictHeaderPrefixIsTorn) {
  const auto log = toyLog();
  const size_t headerBytes = 5 + 1 + 2;  // str "TOY1", uv 7, uv 300
  for (size_t len = 0; len < headerBytes; ++len) {
    ByteReader r(std::span<const uint8_t>(log.data(), len));
    EXPECT_FALSE(tryReadHeader(r, kToy).has_value()) << "len " << len;
  }
  ByteReader whole(std::span<const uint8_t>(log.data(), headerBytes));
  EXPECT_TRUE(tryReadHeader(whole, kToy).has_value());
}

TEST(Seglog, ForeignHeaderIsRefusedNotTorn) {
  // Wrong magic, even in a prefix shorter than the magic.
  using Bytes = std::vector<uint8_t>;
  for (const Bytes& bytes : {Bytes{'n', 'o'}, Bytes{4, 'T', 'O', 'Y', '2'}}) {
    ByteReader r(bytes);
    EXPECT_THROW(tryReadHeader(r, kToy), Error);
  }
  // An over-long varint ending exactly at the end of the data.
  ByteWriter w;
  w.str("TOY1");
  for (int i = 0; i < 11; ++i) w.u8(0xFF);
  ByteReader r(w.bytes());
  EXPECT_THROW(tryReadHeader(r, kToy), Error);
}

TEST(Seglog, StrictThrowsWhereSalvageStops) {
  auto log = toyLog();
  log.back() ^= 0x10;  // corrupt the last segment's payload
  int seen = 0;
  const SegmentFn count = [&](uint8_t, std::span<const uint8_t>) { ++seen; };

  ByteReader strict(log);
  readHeader(strict, kToy);
  EXPECT_THROW(walk(strict, kToy, Mode::Strict, count), Error);

  seen = 0;
  ByteReader salvage(log);
  readHeader(salvage, kToy);
  const WalkResult res = walk(salvage, kToy, Mode::Salvage, count);
  EXPECT_EQ(res.segments, 1u);
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(res.bytesDiscarded, 1u + 1 + 4 + 1);  // the whole last segment
}

TEST(Seglog, CallbackRejectionEndsTheSalvage) {
  const auto log = toyLog();
  ByteReader r(log);
  readHeader(r, kToy);
  const WalkResult res =
      walk(r, kToy, Mode::Salvage, [](uint8_t kind, std::span<const uint8_t>) {
        CYP_CHECK(kind == 0, "toy: kind 1 rejected");
      });
  EXPECT_EQ(res.segments, 1u);
  EXPECT_EQ(res.bytesDiscarded, 7u);
}

TEST(Seglog, UnknownKindIsABadSegment) {
  ByteWriter w;
  writeHeader(w, kToy, {1, 1});
  const std::vector<uint8_t> p = {9};
  encode(w, 2, p);  // kToy.maxKind is 1
  ByteReader r(w.bytes());
  readHeader(r, kToy);
  EXPECT_THROW(walk(r, kToy, Mode::Strict, [](uint8_t, auto) {}), Error);
}

TEST(Seglog, AppenderWritesTheEncodedLogAndRefusesToClobber) {
  io::IoBackend& io = io::realIo();
  const std::string path = tmpPath("a.toy");
  {
    Appender a(io, path, kToy, {7, 300}, /*resume=*/false);
    const std::vector<uint8_t> x = {1, 2, 3}, y = {4};
    a.append(0, x);
    a.append(1, y);
    EXPECT_EQ(a.segmentsWritten(), 2u);
  }
  EXPECT_EQ(io.readAll(path), toyLog());
  EXPECT_THROW(Appender(io, path, kToy, {7, 300}, /*resume=*/false), Error);
  EXPECT_NO_THROW(Appender(io, path, kToy, {7, 300}, /*resume=*/true));
}

size_t salvageToy(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  readHeader(r, kToy);
  return walk(r, kToy, Mode::Salvage, [](uint8_t, auto) {}).bytesDiscarded;
}

TEST(Seglog, RecoverFileTruncatesTornTailAndResetsTornHeader) {
  io::IoBackend& io = io::realIo();
  const std::string path = tmpPath("r.toy");
  const auto log = toyLog();

  EXPECT_FALSE(recoverFile(io, path, kToy, salvageToy).resumable);  // missing

  const std::span<const uint8_t> all(log);
  io.openWrite(path)->write(all.first(log.size() - 2));
  const FileRecovery torn = recoverFile(io, path, kToy, salvageToy);
  EXPECT_TRUE(torn.resumable);
  EXPECT_EQ(torn.bytesDiscarded, 5u);
  EXPECT_EQ(io.fileSize(path), log.size() - 7);

  io.openWrite(path)->write(all.first(6));
  const FileRecovery header = recoverFile(io, path, kToy, salvageToy);
  EXPECT_FALSE(header.resumable);
  EXPECT_EQ(header.bytesDiscarded, 6u);
  EXPECT_EQ(io.fileSize(path), 0u);
}

TEST(Seglog, RecoverFileRefusesAForeignFileUntouched) {
  io::IoBackend& io = io::realIo();
  const std::string path = tmpPath("f.toy");
  const std::vector<uint8_t> junk = {'n', 'o', 'p', 'e', '!', '!'};
  io.openWrite(path)->write(junk);
  EXPECT_THROW(recoverFile(io, path, kToy, salvageToy), Error);
  EXPECT_EQ(io.readAll(path), junk);
}

}  // namespace
}  // namespace cypress::seglog
