#include "flate/seglog.hpp"

#include <algorithm>

#include "flate/flate.hpp"
#include "support/error.hpp"

namespace cypress::seglog {

void writeHeader(ByteWriter& w, const Format& f,
                 std::initializer_list<uint64_t> fields) {
  CYP_CHECK(fields.size() == f.headerFields,
            f.what << ": header takes " << f.headerFields << " fields");
  w.str(f.magic);
  for (uint64_t v : fields) w.uv(v);
}

void encode(ByteWriter& w, uint8_t kind, std::span<const uint8_t> payload) {
  w.u8(kind);
  w.uv(payload.size());
  w.u32fixed(flate::crc32(payload));
  w.raw(payload);
}

std::optional<std::vector<uint64_t>> tryReadHeader(ByteReader& r,
                                                   const Format& f) {
  ByteWriter magic;
  magic.str(f.magic);
  const auto& m = magic.bytes();
  const auto head = r.raw(std::min(r.remaining(), m.size()));
  CYP_CHECK(std::equal(head.begin(), head.end(), m.begin()),
            f.what << ": bad magic");
  if (head.size() < m.size()) return std::nullopt;

  std::vector<uint64_t> fields;
  for (size_t i = 0; i < f.headerFields; ++i) {
    const size_t at = r.pos();
    try {
      fields.push_back(r.uv());
    } catch (const Error&) {
      // uv() fails by running out of data (torn) or on an over-long
      // varint, which consumes more than the 10 bytes any uint64 takes.
      if (r.atEnd() && r.pos() - at <= 10) return std::nullopt;
      throw;
    }
  }
  return fields;
}

std::vector<uint64_t> readHeader(ByteReader& r, const Format& f) {
  auto fields = tryReadHeader(r, f);
  CYP_CHECK(fields.has_value(), f.what << ": torn header");
  return std::move(*fields);
}

WalkResult walk(ByteReader& r, const Format& f, Mode mode,
                const SegmentFn& onSegment) {
  WalkResult out;
  const size_t end = r.pos() + r.remaining();
  while (!r.atEnd()) {
    const size_t segStart = r.pos();
    try {
      const uint8_t kind = r.u8();
      CYP_CHECK(kind <= f.maxKind,
                f.what << ": unknown segment kind " << int(kind));
      const uint64_t len = r.uv();
      const uint32_t crc = r.u32fixed();
      const std::span<const uint8_t> payload = r.raw(len);
      CYP_CHECK(flate::crc32(payload) == crc,
                f.what << ": segment CRC mismatch");
      onSegment(kind, payload);
      ++out.segments;
    } catch (const Error&) {
      if (mode == Mode::Strict) throw;
      // Torn or corrupt: everything before segStart is intact.
      out.bytesDiscarded = end - segStart;
      return out;
    }
  }
  return out;
}

Appender::Appender(io::IoBackend& io, const std::string& path,
                   const Format& f, std::initializer_list<uint64_t> header,
                   bool resume) {
  const bool fresh = !io.exists(path) || io.fileSize(path) == 0;
  CYP_CHECK(fresh || resume, f.what << ": " << path << " already exists; "
                                    << f.resumeHint);
  file_ = io.openWrite(path, /*append=*/true);
  if (fresh) {
    ByteWriter h;
    writeHeader(h, f, header);
    file_->write(h.bytes());
    file_->sync();
  }
}

void Appender::append(uint8_t kind, std::span<const uint8_t> payload) {
  ByteWriter w;
  encode(w, kind, payload);
  // One write + fsync per segment: a kill tears at most this segment,
  // and a record the caller acted on cannot be lost to the page cache.
  file_->write(w.bytes());
  file_->sync();
  ++segments_;
}

FileRecovery recoverFile(
    io::IoBackend& io, const std::string& path, const Format& f,
    const std::function<size_t(std::span<const uint8_t>)>& salvage) {
  FileRecovery out;
  if (!io.exists(path)) return out;
  const std::vector<uint8_t> bytes = io.readAll(path);
  if (bytes.empty()) return out;

  ByteReader r(bytes);
  if (!tryReadHeader(r, f)) {
    // The writer died creating the file: start over from empty.
    io.truncate(path, 0);
    out.bytesDiscarded = bytes.size();
    return out;
  }
  out.bytesDiscarded = salvage(bytes);
  if (out.bytesDiscarded > 0)
    // Cut the torn tail so a resumed Appender writes at the segment
    // boundary instead of behind garbage.
    io.truncate(path, bytes.size() - out.bytesDiscarded);
  out.resumable = true;
  return out;
}

}  // namespace cypress::seglog
