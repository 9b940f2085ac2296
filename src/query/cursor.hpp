// CompressedCursor: stream one rank's events straight off the CTT.
//
// The decompressor in src/cypress materializes a full per-rank event
// vector; consumers like SIM-MPI replay only ever look at each rank's
// *current* event. This cursor is a thin buffer over the same
// core::RankWalk that decompressRank() drains in one call: it refills a
// batch of kBatch events from the walk and serves peek()/next() from
// it, so replay and event-at-a-time analyses read the compressed form
// directly with O(#CST vertices + #records + tree depth + kBatch) state
// — never O(events). The event sequence is therefore exactly
// decompressRank()'s, and a cursor that reaches done() has passed the
// same drain check.
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

  /// Events consumed by next() so far; after a drain, the rank's event
  /// count.
  uint64_t emitted() const { return emitted_; }

  int rank() const { return walk_.rank(); }

  /// Heap footprint of the cursor state (the replay-side memory story:
  /// compare against events * sizeof(Event) for the materialized path).
  size_t memoryBytes() const;

 private:
  /// Events per refill. Replay holds one batch per rank: P * kBatch *
  /// sizeof(Event) of memory.
  static constexpr size_t kBatch = 8;

  core::RankWalk walk_;
  std::vector<trace::Event> batch_;
  size_t pos_ = 0;     // the current event's index in batch_
  bool more_ = true;   // the walk has not ended yet
  uint64_t emitted_ = 0;
};

}  // namespace cypress::query
