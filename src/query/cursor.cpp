#include "query/cursor.hpp"

#include "support/error.hpp"

namespace cypress::query {

CompressedCursor::CompressedCursor(const core::MergedCtt& m, int rank)
    : reader_(m, rank) {
  push(m.cst().root());
}

void CompressedCursor::push(const cst::Node* n) {
  Frame f;
  f.node = n;
  f.exec = reader_.enter(n->gid);
  stack_.push_back(f);
}

void CompressedCursor::advance() {
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    const cst::Node* n = f.node;
    if (f.child >= n->children.size()) {
      stack_.pop_back();
      continue;
    }
    const cst::Node* child = n->children[f.child].get();
    switch (child->kind) {
      case cst::NodeKind::Comm:
        if (reader_.takeLeaf(child->gid, f.exec)) {
          reader_.fillEvent(child->gid, buf_);
          hasEvent_ = true;
          ++emitted_;
          return;  // pause: one event buffered
        }
        ++f.child;
        break;
      case cst::NodeKind::Loop:
        if (!f.pendingValid) {
          f.pending = reader_.loopCount(child->gid);
          f.pendingValid = true;
        }
        if (f.pending > 0) {
          --f.pending;
          push(child);  // invalidates f; loop re-reads stack_.back()
        } else {
          f.pendingValid = false;
          ++f.child;
        }
        break;
      case cst::NodeKind::Branch:
        if (reader_.takeBranch(child->gid, f.exec))
          push(child);
        else
          ++f.child;
        break;
      case cst::NodeKind::Call:
        ++f.child;  // visited exactly once: step past it before pushing
        push(child);
        break;
      case cst::NodeKind::Root:
        CYP_FAIL("nested root in CST");
    }
  }
  reader_.checkDrained();
  finished_ = true;
}

bool CompressedCursor::done() {
  if (!hasEvent_ && !finished_) advance();
  return !hasEvent_;
}

const trace::Event& CompressedCursor::peek() {
  CYP_CHECK(!done(), "compressed cursor exhausted");
  return buf_;
}

void CompressedCursor::next() {
  CYP_CHECK(!done(), "compressed cursor exhausted");
  hasEvent_ = false;
}

size_t CompressedCursor::memoryBytes() const {
  return sizeof(*this) + reader_.memoryBytes() +
         stack_.capacity() * sizeof(Frame);
}

}  // namespace cypress::query
