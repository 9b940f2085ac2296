// seglog: the CRC-framed segment log behind the CYJ1 trace journal,
// CYSP merge spills, the CYM1 merge manifest and the CYL1 daemon ledger
// (docs/FORMATS.md, "Segment logs"):
//
//   header:  str magic | uvarint field...
//   segment: u8 kind | uvarint payloadLen | u32 crc32(payload) | payload
//
// It owns the framing, the strict and salvage walks, the durable
// Appender and salvage-and-truncate; each format keeps its header
// fields, payload codecs and semantics. The torn-header rule, one for
// every format: a file that ends inside its header is reset to empty,
// and any other header failure is refused. In cyp_flate because framing
// needs crc32 and every library that writes a log links flate.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/bytebuf.hpp"
#include "support/io.hpp"

namespace cypress::seglog {

/// The static description of one log format.
struct Format {
  const char* magic;    ///< four-character tag, stored as a str
  const char* what;     ///< prefix of every error this format raises
  uint8_t maxKind;      ///< valid segment kinds are 0..maxKind
  size_t headerFields;  ///< uvarints following the magic
  /// Appender's advice for getting past an existing file.
  const char* resumeHint = "";
};

void writeHeader(ByteWriter& w, const Format& f,
                 std::initializer_list<uint64_t> fields);

/// Frame one segment onto `w`.
void encode(ByteWriter& w, uint8_t kind, std::span<const uint8_t> payload);

/// The header fields at `r`, or nullopt when the data ends inside the
/// header; throws cypress::Error when it is not a header of `f`.
std::optional<std::vector<uint64_t>> tryReadHeader(ByteReader& r,
                                                   const Format& f);

/// tryReadHeader, raising a torn header as cypress::Error too.
std::vector<uint64_t> readHeader(ByteReader& r, const Format& f);

/// Strict raises cypress::Error on a bad segment; Salvage stops there.
enum class Mode { Strict, Salvage };

struct WalkResult {
  size_t segments = 0;        ///< segments accepted
  size_t bytesDiscarded = 0;  ///< from the first bad segment to the end
};

/// Decodes and commits one CRC-valid segment; throwing cypress::Error
/// makes it a bad segment.
using SegmentFn =
    std::function<void(uint8_t kind, std::span<const uint8_t> payload)>;

/// Walk the segments from `r`'s position (past the header) to the end.
WalkResult walk(ByteReader& r, const Format& f, Mode mode,
                const SegmentFn& onSegment);

/// Durable append-only writer: one write + fsync per segment.
class Appender {
 public:
  /// Opens `path` for appending. A missing or empty file gets the
  /// header, written and fsynced. A non-empty file is refused unless
  /// `resume` is set; recoverFile must have salvaged it first.
  Appender(io::IoBackend& io, const std::string& path, const Format& f,
           std::initializer_list<uint64_t> header, bool resume);

  void append(uint8_t kind, std::span<const uint8_t> payload);

  /// Segments appended through this writer (header excluded).
  uint64_t segmentsWritten() const { return segments_; }

 private:
  std::unique_ptr<io::IoFile> file_;
  uint64_t segments_ = 0;
};

struct FileRecovery {
  bool resumable = false;     ///< a valid header survived
  size_t bytesDiscarded = 0;  ///< truncated away (all of a torn header)
};

/// Salvage the log at `path` so an Appender can resume it. `salvage`
/// reads the whole file in salvage mode (throwing for a header it
/// refuses) and returns the bytes it discarded, which are truncated
/// away. A missing or empty file is not resumable; nor is a torn
/// header, which is reset to empty without calling `salvage`.
FileRecovery recoverFile(
    io::IoBackend& io, const std::string& path, const Format& f,
    const std::function<size_t(std::span<const uint8_t>)>& salvage);

}  // namespace cypress::seglog
