// Sequence-preserving decompression (paper §V).
//
// The merged trace tree is traversed in pre-order; loop vertices replay
// their recorded iteration counts, branch vertices their recorded
// outcomes, and comm leaves print the stored records — reproducing each
// rank's original event sequence exactly (recursion pseudo-loops are the
// paper's documented approximation: event multiset preserved, unwind
// order linearized).
//
// RankWalk is the one implementation of that walk. decompressRank
// drains it in one call; query::CompressedCursor drains it a small
// batch at a time, so both see the same sequence and the same checks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cypress/merge.hpp"
#include "trace/event.hpp"

namespace cypress::core {

/// One rank's pre-order walk over a merged CTT, held on an explicit
/// stack so it can stop after any event and resume. It owns the loop,
/// branch and leaf cursors of the variants the rank uses and the
/// per-vertex execution ordinals. State is O(#CST vertices + #records +
/// tree depth), never O(events). `m` must outlive the walk.
class RankWalk {
 public:
  /// Constructing for a lost / uncovered rank succeeds; the first
  /// fill() that reaches one of its vertices throws.
  RankWalk(const MergedCtt& m, int rank);

  int rank() const { return rank_; }

  /// Append up to `max` of the rank's next events to `out`. Returns
  /// false once the walk has ended and passed the drain check (events
  /// appended by that same call are still valid). Throws cypress::Error
  /// if the tree's payload is inconsistent: a missing or negative loop
  /// count, an occurrence no record covers, or payload left unconsumed
  /// at the end is a bug, not a warning.
  bool fill(std::vector<trace::Event>& out, size_t max);

  /// Heap footprint of the walk state.
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
  /// One execution of one CST vertex, paused between children (or
  /// between the occurrences of a Comm child).
  struct Frame {
    const cst::Node* node;
    uint64_t exec;   // this execution's ordinal of `node`
    uint64_t iters;  // executions left, this one included (loops)
    size_t child;    // index of the child being processed
  };

  void push(const cst::Node* n, uint64_t iters) {
    stack_.push_back(Frame{n, exec_[static_cast<size_t>(n->gid)]++, iters, 0});
  }
  uint64_t loopCount(int gid);
  /// Consume one entry of `c` if it equals parent execution `g`.
  static bool takeAt(std::optional<SectionSeq::Cursor>& c, uint64_t g) {
    if (!c.has_value() || c->done() || c->peek() != static_cast<int64_t>(g))
      return false;
    c->next();
    return true;
  }
  /// Set `e` (default-constructed) to leaf `gid`'s next occurrence.
  /// Timing fields are the record's mean values; all communication
  /// content is exact.
  void fillEvent(int gid, trace::Event& e);
  void checkDrained() const;

  int rank_;
  std::vector<std::optional<SectionSeq::Cursor>> loops_;
  std::vector<std::optional<SectionSeq::Cursor>> taken_;
  std::vector<LeafState> leaves_;
  std::vector<uint64_t> exec_;
  std::vector<Frame> stack_;
};

/// Reconstruct the full event sequence of one rank. Throws
/// cypress::Error if the tree's payload is inconsistent.
std::vector<trace::Event> decompressRank(const MergedCtt& m, int rank);

/// Decompress every rank (convenience for tests and the replay harness).
trace::RawTrace decompressAll(const MergedCtt& m, int numRanks);

}  // namespace cypress::core
