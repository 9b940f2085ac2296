#include "query/cursor.hpp"

#include "support/error.hpp"

namespace cypress::query {

CompressedCursor::CompressedCursor(const core::MergedCtt& m, int rank)
    : walk_(m, rank) {
  batch_.reserve(kBatch);
}

bool CompressedCursor::done() {
  if (pos_ == batch_.size() && more_) {
    batch_.clear();
    pos_ = 0;
    more_ = walk_.fill(batch_, kBatch);
  }
  return pos_ == batch_.size();
}

const trace::Event& CompressedCursor::peek() {
  CYP_CHECK(!done(), "compressed cursor exhausted");
  return batch_[pos_];
}

void CompressedCursor::next() {
  CYP_CHECK(!done(), "compressed cursor exhausted");
  ++pos_;
  ++emitted_;
}

size_t CompressedCursor::memoryBytes() const {
  return sizeof(*this) + walk_.memoryBytes() +
         batch_.capacity() * sizeof(trace::Event);
}

}  // namespace cypress::query
