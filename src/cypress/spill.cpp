#include "cypress/spill.hpp"

#include <algorithm>

#include "flate/flate.hpp"
#include "flate/seglog.hpp"
#include "support/error.hpp"

namespace cypress::core {

namespace {

constexpr uint64_t kSpillVersion = 1;
constexpr uint64_t kManifestVersion = 1;
constexpr size_t kSpillChunkBytes = 256u << 10;

constexpr uint8_t kChunkSegment = 0;
constexpr uint8_t kSealSegment = 1;

constexpr uint8_t kBatchSegment = 0;
constexpr uint8_t kMergeSegment = 1;
constexpr uint8_t kFinalSegment = 2;

/// str "CYSP" | uv version
constexpr seglog::Format kSpillLog{"CYSP", "spill", kSealSegment, 1};

/// str "CYM1" | uv version | uv numRanks | uv budgetBytes
/// | uv maxBatchRanks
constexpr seglog::Format kManifestLog{
    "CYM1", "manifest", kFinalSegment, 4,
    "pass --resume to continue the interrupted merge or remove its work "
    "directory to start fresh"};

}  // namespace

SpillSink::SpillSink(io::IoBackend& io, const std::string& path)
    : file_(io.openWrite(path)) {
  chunk_.reserve(kSpillChunkBytes);
  ByteWriter h;
  seglog::writeHeader(h, kSpillLog, {kSpillVersion});
  file_->write(h.bytes());
}

void SpillSink::flushChunk() {
  // Chunked so a torn write is localized: every chunk is independently
  // CRC-checked, and the seal pins the whole-stream length and CRC.
  stream_.append(chunk_);
  ByteWriter seg;
  seglog::encode(seg, kChunkSegment, chunk_);
  file_->write(seg.bytes());
  chunk_.clear();
}

void SpillSink::append(std::span<const uint8_t> bytes) {
  CYP_CHECK(!sealed_, "spill: append after seal");
  while (!bytes.empty()) {
    const size_t n = std::min(kSpillChunkBytes - chunk_.size(), bytes.size());
    chunk_.insert(chunk_.end(), bytes.begin(), bytes.begin() + n);
    bytes = bytes.subspan(n);
    // Eager flush at exactly the chunk size: writeSpill cuts full
    // chunks at the same offsets, so the files are byte-identical.
    if (chunk_.size() == kSpillChunkBytes) flushChunk();
  }
}

SpillSink::Totals SpillSink::seal() {
  CYP_CHECK(!sealed_, "spill: sealed twice");
  sealed_ = true;
  if (!chunk_.empty()) flushChunk();
  ByteWriter seal;
  seal.uv(stream_.bytes());
  seal.u32fixed(stream_.crc());
  ByteWriter seg;
  seglog::encode(seg, kSealSegment, seal.bytes());
  file_->write(seg.bytes());
  file_->sync();
  file_->close();
  return {stream_.bytes(), stream_.crc()};
}

void writeSpill(io::IoBackend& io, const std::string& path,
                std::span<const uint8_t> data) {
  SpillSink sink(io, path);
  sink.append(data);
  sink.seal();
}

std::vector<uint8_t> parseSpill(std::span<const uint8_t> file) {
  ByteReader r(file);
  const uint64_t version = seglog::readHeader(r, kSpillLog)[0];
  CYP_CHECK(version == kSpillVersion, "spill: unsupported version " << version);

  std::vector<uint8_t> data;
  bool sealed = false;
  auto onSegment = [&](uint8_t kind, std::span<const uint8_t> payload) {
    CYP_CHECK(!sealed, "spill: segment after seal");
    if (kind == kChunkSegment) {
      r.chargeAlloc(payload.size());
      data.insert(data.end(), payload.begin(), payload.end());
      return;
    }
    ByteReader p(payload);
    const uint64_t totalBytes = p.uv();
    const uint32_t totalCrc = p.u32fixed();
    CYP_CHECK(p.atEnd(), "spill: trailing bytes in seal");
    CYP_CHECK(totalBytes == data.size(),
              "spill: seal declares " << totalBytes << " bytes, chunks hold "
                                      << data.size());
    CYP_CHECK(totalCrc == flate::crc32(data), "spill: stream CRC mismatch");
    sealed = true;
  };
  seglog::walk(r, kSpillLog, seglog::Mode::Strict, onSegment);
  CYP_CHECK(sealed, "spill: unsealed (incomplete checkpoint)");
  return data;
}

std::vector<uint8_t> readSpill(io::IoBackend& io, const std::string& path) {
  return parseSpill(io.readAll(path));
}

bool spillIntact(io::IoBackend& io, const std::string& path,
                 uint64_t expectBytes, uint32_t expectCrc) {
  if (!io.exists(path)) return false;
  try {
    const auto data = readSpill(io, path);
    return data.size() == expectBytes && flate::crc32(data) == expectCrc;
  } catch (const Error&) {
    return false;
  }
}

ManifestWriter::ManifestWriter(io::IoBackend& io, const std::string& path,
                               const MergePlanKey& key, bool resume)
    : log_(io, path, kManifestLog,
           {kManifestVersion, key.numRanks, key.budgetBytes, key.maxBatchRanks},
           resume) {}

void ManifestWriter::appendBatch(const BatchRecord& b) {
  ByteWriter p;
  p.uv(b.batchIndex);
  p.uv(static_cast<uint64_t>(b.firstRank));
  p.uv(static_cast<uint64_t>(b.rankCount));
  p.str(b.file);
  p.uv(b.fileBytes);
  p.u32fixed(b.fileCrc);
  b.lostRanks.serialize(p);
  log_.append(kBatchSegment, p.bytes());
}

void ManifestWriter::appendMerge(const MergeRecord& m) {
  ByteWriter p;
  p.uv(m.round);
  p.uv(m.pairIndex);
  p.str(m.file);
  p.uv(m.fileBytes);
  p.u32fixed(m.fileCrc);
  log_.append(kMergeSegment, p.bytes());
}

void ManifestWriter::appendFinal(const FinalRecord& f) {
  ByteWriter p;
  p.str(f.outPath);
  p.uv(f.bytes);
  p.u32fixed(f.crc);
  log_.append(kFinalSegment, p.bytes());
}

namespace {

ManifestRecovery readManifest(std::span<const uint8_t> data,
                              seglog::Mode mode) {
  ByteReader r(data);
  const auto header = seglog::readHeader(r, kManifestLog);
  CYP_CHECK(header[0] == kManifestVersion,
            "manifest: unsupported version " << header[0]);
  ManifestRecovery out;
  out.key = {header[1], header[2], header[3]};
  CYP_CHECK(out.key.numRanks >= 1 && out.key.numRanks <= (1u << 22),
            "manifest: implausible rank count " << out.key.numRanks);

  auto onSegment = [&](uint8_t kind, std::span<const uint8_t> payload) {
    CYP_CHECK(!out.final.has_value(), "manifest: segment after FINAL");
    ByteReader p(payload);
    if (kind == kBatchSegment) {
      BatchRecord b;
      b.batchIndex = p.uv();
      b.firstRank = static_cast<int>(p.uv());
      b.rankCount = static_cast<int>(p.uv());
      b.file = p.str();
      b.fileBytes = p.uv();
      b.fileCrc = p.u32fixed();
      b.lostRanks = RankSet::deserialize(p);
      CYP_CHECK(p.atEnd(), "manifest: trailing bytes in batch segment");
      CYP_CHECK(b.batchIndex == out.batches.size(),
                "manifest: batch " << b.batchIndex << " out of order");
      CYP_CHECK(b.rankCount >= 1, "manifest: empty batch");
      out.batches.push_back(std::move(b));
    } else if (kind == kMergeSegment) {
      MergeRecord m;
      m.round = p.uv();
      m.pairIndex = p.uv();
      m.file = p.str();
      m.fileBytes = p.uv();
      m.fileCrc = p.u32fixed();
      CYP_CHECK(p.atEnd(), "manifest: trailing bytes in merge segment");
      out.merges.push_back(std::move(m));
    } else {
      FinalRecord f;
      f.outPath = p.str();
      f.bytes = p.uv();
      f.crc = p.u32fixed();
      CYP_CHECK(p.atEnd(), "manifest: trailing bytes in final segment");
      out.final = std::move(f);
    }
  };
  const auto walked = seglog::walk(r, kManifestLog, mode, onSegment);
  out.segmentsRecovered = walked.segments;
  out.bytesDiscarded = walked.bytesDiscarded;
  return out;
}

}  // namespace

ManifestRecovery recoverManifest(std::span<const uint8_t> data) {
  return readManifest(data, seglog::Mode::Salvage);
}

ManifestRecovery parseManifest(std::span<const uint8_t> data) {
  return readManifest(data, seglog::Mode::Strict);
}

std::optional<ManifestRecovery> recoverManifestFile(io::IoBackend& io,
                                                    const std::string& path) {
  std::optional<ManifestRecovery> rec;
  seglog::recoverFile(io, path, kManifestLog,
                      [&](std::span<const uint8_t> bytes) {
                        rec = recoverManifest(bytes);
                        return rec->bytesDiscarded;
                      });
  return rec;
}

}  // namespace cypress::core
