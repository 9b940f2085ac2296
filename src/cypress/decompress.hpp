// Sequence-preserving decompression (paper §V).
//
// The merged trace tree is traversed in pre-order; loop vertices replay
// their recorded iteration counts, branch vertices their recorded
// outcomes, and comm leaves print the stored records — reproducing each
// rank's original event sequence exactly (recursion pseudo-loops are the
// paper's documented approximation: event multiset preserved, unwind
// order linearized).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cypress/merge.hpp"
#include "trace/event.hpp"

namespace cypress::core {

/// One rank's read position in a merged CTT's payload: the loop, branch
/// and leaf cursors of the variants the rank uses, plus the per-vertex
/// execution ordinals of the walk. Every pre-order walk over the tree
/// (decompressRank's recursion, query::CompressedCursor's explicit
/// stack) drives one of these, so payload lookup, event fill and the
/// drain check exist once. `m` must outlive the reader.
class RankReader {
 public:
  RankReader(const MergedCtt& m, int rank);

  int rank() const { return rank_; }

  /// Start the next execution of vertex `gid`; returns its ordinal.
  uint64_t enter(int gid) { return exec_[static_cast<size_t>(gid)]++; }

  /// Iteration count of the next activation of loop `gid`. Throws
  /// cypress::Error when the rank has no activation left or the count
  /// is negative.
  uint64_t loopCount(int gid);

  /// Consume one outcome of branch `gid` if the branch was taken during
  /// parent execution `g`.
  bool takeBranch(int gid, uint64_t g) {
    return takeAt(taken_[static_cast<size_t>(gid)], g);
  }

  /// Consume one occurrence of leaf `gid` if it fired during parent
  /// execution `g`; the caller then reads it with fillEvent(gid, e).
  bool takeLeaf(int gid, uint64_t g) {
    return takeAt(leaves_[static_cast<size_t>(gid)].exec, g);
  }

  /// Overwrite `e` with the event of leaf `gid`'s next occurrence.
  /// Timing fields are the record's mean values; all communication
  /// content is exact.
  void fillEvent(int gid, trace::Event& e);

  /// Throws cypress::Error if any payload cursor was left unconsumed:
  /// a walk that ends with payload to spare read an inconsistent tree.
  void checkDrained() const;

  /// Heap footprint of the reader state.
  size_t memoryBytes() const;

 private:
  struct RecState {
    SectionSeq::Cursor ord;
    std::optional<SectionSeq::Cursor> matched;
    const CommRecord* rec;
  };
  struct LeafState {
    uint64_t nextOrdinal = 0;
    std::optional<SectionSeq::Cursor> exec;  // empty: no variant here
    std::vector<RecState> recs;
  };

  static bool takeAt(std::optional<SectionSeq::Cursor>& c, uint64_t g) {
    if (!c.has_value() || c->done() || c->peek() != static_cast<int64_t>(g))
      return false;
    c->next();
    return true;
  }

  int rank_;
  std::vector<std::optional<SectionSeq::Cursor>> loops_;
  std::vector<std::optional<SectionSeq::Cursor>> taken_;
  std::vector<LeafState> leaves_;
  std::vector<uint64_t> exec_;
};

/// Reconstruct the full event sequence of one rank. Throws
/// cypress::Error if the tree's payload is inconsistent (any cursor left
/// unconsumed is a bug, not a warning).
std::vector<trace::Event> decompressRank(const MergedCtt& m, int rank);

/// Decompress every rank (convenience for tests and the replay harness).
trace::RawTrace decompressAll(const MergedCtt& m, int numRanks);

}  // namespace cypress::core
