// Golden bytes of every on-disk log and container format.
//
// Each sample is built from fixed inputs and compared against a
// committed byte constant, so any change to the framing, a header
// field, a payload codec or the CYF1 shard layout shows up as a diff
// here — not as a silently incompatible file. The CYSP and CYF1
// samples large enough to need a second 256 KiB chunk or shard pin
// every framing byte and take their bulk payload from a fixed pattern.
#include <gtest/gtest.h>

#include "flate/flate.hpp"
#include "flate/stream.hpp"
#include "integration/log_samples.hpp"

namespace cypress {
namespace {

using samples::fileBytes;
using samples::freshDir;

std::vector<uint8_t> fromHex(std::string_view hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

std::string toHex(std::span<const uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (uint8_t b : bytes) {
    s += digits[b >> 4];
    s += digits[b & 15];
  }
  return s;
}

std::vector<uint8_t> concat(
    std::initializer_list<std::span<const uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (auto p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Bytes of a fixed, mildly compressible pattern.
std::vector<uint8_t> pattern(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = static_cast<uint8_t>((i * 131 + (i >> 9) * 7) & 0xFF);
  return out;
}

#define EXPECT_GOLDEN(actual, hex) \
  EXPECT_EQ(toHex(actual), std::string(hex))

// --- CYJ1 ------------------------------------------------------------

constexpr const char* kJournalHex =
    "0443594a310300184dbe776100020002800106000201010a1400028002060004"
    "01010a14000c0522e05b020100024006000801010a1401018def02d2000101a1"
    "8e0c3c020205dd7659d10102000103";

TEST(GoldenBytes, JournalCYJ1) {
  trace::JournalBuilder b(3);
  samples::fillJournal(b);
  EXPECT_GOLDEN(b.bytes(), kJournalHex);
}

TEST(GoldenBytes, JournalCYJ1DurableSinkWritesTheSameBytes) {
  const std::string path = freshDir("cyp_golden_cyj") + "/j.cyj";
  {
    trace::JournalBuilder b(3, trace::durableFileSink(io::realIo(), path));
    samples::fillJournal(b);
  }
  EXPECT_GOLDEN(fileBytes(path), kJournalHex);
}

// --- CYSP ------------------------------------------------------------

TEST(GoldenBytes, SpillCYSPSingleChunk) {
  const std::string path = freshDir("cyp_golden_cysp1") + "/s.cysp";
  core::writeSpill(io::realIo(), path, pattern(40));
  EXPECT_GOLDEN(fileBytes(path),
                "0443595350010028ae3e001c008306890c8f1295189b1ea124a72aad30b336"
                "b93cbf42c548cb4ed154d75add60e366e96cef72f501053b69d3a028ae3e00"
                "1c");
}

TEST(GoldenBytes, SpillCYSPChunkedAndSealed) {
  // Two chunks: one full 256 KiB chunk and a 100-byte tail, then SEAL.
  const size_t kChunk = 256u << 10;
  const auto data = pattern(kChunk + 100);
  const std::string path = freshDir("cyp_golden_cysp2") + "/s.cysp";
  core::writeSpill(io::realIo(), path, data);
  const std::span<const uint8_t> d(data);
  const auto expect = concat({
      fromHex("044359535001"),      // header: magic, version 1
      fromHex("008080106f3c4adc"),  // CHUNK 0: kind, len 262144, crc
      d.subspan(0, kChunk),
      fromHex("0064323ac193"),      // CHUNK 1: kind, len 100, crc
      d.subspan(kChunk),
      fromHex("0107fe8c3b1ce48010fd2ffb37"),  // SEAL: totals and crc
  });
  const auto got = fileBytes(path);
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_TRUE(got == expect);
}

// --- CYM1 ------------------------------------------------------------

TEST(GoldenBytes, ManifestCYM1) {
  const std::string path = freshDir("cyp_golden_cym") + "/m.cym";
  samples::writeManifest(io::realIo(), path);
  EXPECT_GOLDEN(fileBytes(path),
                "0443594d3101108080400300123ae9e9ba0000030762302e637973708906ef"
                "beadde00000d1903902b010303000000000000010602030112c1e69c7e0000"
                "0a72302d70302e637973707b2a000000020ef8105c20076f75742e637970e7"
                "0707000000");
}

// --- CYL1 ------------------------------------------------------------

TEST(GoldenBytes, LedgerCYL1) {
  const std::string path = freshDir("cyp_golden_cyl") + "/jobs.cyl";
  samples::writeLedger(path);
  EXPECT_GOLDEN(fileBytes(path),
                "0443594c3102001b7d9f7290010700064a41434f4249000401010864726f70"
                "3a31403300000000001bbeb2e623020700064a41434f424900040101086472"
                "6f703a31403300000000011490a1a9320101010e617474656d70742031206f"
                "662033000001342f06e45401020110747261636564203936206576656e7473"
                "0f73706f6f6c2f6a6f622d312e6379700f73706f6f6c2f6a6f622d312e6379"
                "6a01145aec009d0201010e617474656d70742031206f6620330000011717f4"
                "5c3f020001117472616e7369656e74206661696c7572650000");
}

// --- CYF1 ------------------------------------------------------------

std::vector<uint8_t> streamed(std::span<const uint8_t> data, int threads) {
  VectorSink sink;
  flate::StreamingCompressor sc(sink, flate::Level::Default, threads);
  sc.append(data);
  sc.finish();
  return sink.take();
}

TEST(GoldenBytes, FlateCYF1SingleBlock) {
  // Repetitive enough for a Huffman block, small enough for one.
  std::string text;
  for (int i = 0; i < 4; ++i)
    text += "CYPRESS compresses communication traces top-down: the static "
            "CST meets the dynamic CTT, loop by loop, call by call. ";
  const std::span<const uint8_t> data(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());
  const char* hex =
      "43594631d00348b1b83401000000000000000000000000000000000300000000"
      "0076070000000000070000006070000000000006560500600000005046460066"
      "0055450546646060000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000666500000000000000000006000060000030333200"
      "20000000000000000041edd0f57fe74092cacaaaacb5a62d2f146c910c5b035d"
      "d0a47c26d9f30f3633d4ae93d03a8fc46c7ac3e9c82155ea7d832852301e7736"
      "a010635d35bf789dcf394f";
  EXPECT_GOLDEN(flate::compress(data), hex);
  EXPECT_GOLDEN(streamed(data, 1), hex);
}

TEST(GoldenBytes, FlateCYF1Empty) {
  const char* hex = "435946310000000000";
  EXPECT_GOLDEN(flate::compress({}), hex);
  EXPECT_GOLDEN(streamed({}, 1), hex);
}

TEST(GoldenBytes, FlateCYF1Framed) {
  // Two shards: kShardBytes and a 1000-byte tail of a short repeat, so
  // the constant stays small.
  std::vector<uint8_t> data(flate::kShardBytes + 1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = "CYPRESS "[i % 8];
  const char* hex =
      "43594631e88710c76ad4db0202a4040100000000000000000000000000000000"
      "0500000000000000000000000000000000504000000000000444000040000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000004000004000000000000000000001000"
      "001000000000000000000000000083037fb2a2fb912449922449922449922449"
      "9224499224499224499224499224499224499224499224499224499224499224"
      "4992244992244992244992244992244992244992244992244992244992244992"
      "2449922449922449922449922449922449922449922449922449922449922449"
      "9224499224499224499224499224499224499224499224499224499224499224"
      "4992244992244992244992244992244992244992244992244992244992244992"
      "2449922449922449922449922449922449922449922449922449922449922449"
      "9224499224499224499224499224499224499224499224499224499224499224"
      "4992244992244992244992244992244992244992244992244992244992244992"
      "2449922449922449922449922449922449922449922449922449922449922449"
      "9224499224499224499224499224499224499224499224499224499224499224"
      "4992244992244992244992244992244992244992244992244992244992244992"
      "24499224499224499224499224499224499e0ba7010100000000000000000000"
      "0000000000000400000000000000000000000000000000404000000000000434"
      "0000400000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000003000000000000000000"
      "000000302000001000000000000000000000000007fd7b231522e66a";
  for (int threads : {1, 4}) {
    EXPECT_GOLDEN(flate::compress(data, flate::Level::Default, threads), hex)
        << "threads " << threads;
    EXPECT_GOLDEN(streamed(data, threads), hex) << "threads " << threads;
  }
}

}  // namespace
}  // namespace cypress
