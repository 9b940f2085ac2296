// CompressedCursor: stream one rank's events straight off the CTT.
//
// The decompressor in src/cypress materializes a full per-rank event
// vector; consumers like SIM-MPI replay only ever look at each rank's
// *current* event. This cursor runs the same pre-order CTT walk as an
// explicit-stack machine that pauses after every emitted event, so
// replay and event-at-a-time analyses read the compressed form directly
// with O(#CST vertices + #records + tree depth) state — never O(events).
//
// Both walks read the payload through one core::RankReader, which owns
// the rank's loop, branch and leaf cursors, the event fill and the
// end-of-walk drain check. The event sequence is therefore exactly
// decompressRank()'s, and a cursor that reaches done() has passed the
// same drain check. Only the walk itself is kept twice: the recursive
// one is measurably faster for full expansion (DESIGN.md §4, item 8).
#pragma once

#include <cstdint>
#include <vector>

#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "trace/event.hpp"

namespace cypress::query {

class CompressedCursor {
 public:
  /// Build a cursor over `m` for one covered rank. `m` must outlive the
  /// cursor. Constructing for a lost / uncovered rank yields a cursor
  /// that throws on first use, exactly as decompressRank() throws.
  CompressedCursor(const core::MergedCtt& m, int rank);

  CompressedCursor(CompressedCursor&&) = default;
  CompressedCursor& operator=(CompressedCursor&&) = default;

  /// True when the walk is complete (runs the drain check once).
  bool done();

  /// The current event; valid until next(). Requires !done().
  const trace::Event& peek();

  /// Consume the current event.
  void next();

  /// Events emitted so far (consumed + the buffered one, if any).
  uint64_t emitted() const { return emitted_; }

  int rank() const { return reader_.rank(); }

  /// Heap footprint of the cursor state (the replay-side memory story:
  /// compare against events * sizeof(Event) for the materialized path).
  size_t memoryBytes() const;

 private:
  /// One execution of one CST vertex, paused between children (and
  /// between occurrences at a Comm child).
  struct Frame {
    const cst::Node* node = nullptr;
    uint64_t exec = 0;    // this execution's ordinal of `node`
    size_t child = 0;     // index of the child being processed
    uint64_t pending = 0; // loop iterations still to push
    bool pendingValid = false;
  };

  void push(const cst::Node* n);
  void advance();  // run the machine until an event is buffered or done

  core::RankReader reader_;
  std::vector<Frame> stack_;
  trace::Event buf_;
  bool hasEvent_ = false;
  bool finished_ = false;
  uint64_t emitted_ = 0;
};

}  // namespace cypress::query
