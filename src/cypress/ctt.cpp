#include "cypress/ctt.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cypress::core {

size_t Ctt::memoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& s : loopCounts_) total += s.memoryBytes();
  for (const auto& s : taken_) total += s.memoryBytes();
  for (const auto& s : leafExec_) total += s.memoryBytes();
  for (const auto& v : records_) {
    total += v.capacity() * sizeof(CommRecord);
    for (const auto& r : v) total += r.memoryBytes() - sizeof(CommRecord);
  }
  return total;
}

size_t Ctt::compressedItems() const {
  size_t n = 0;
  for (const auto& s : loopCounts_) n += s.sectionCount();
  for (const auto& s : taken_) n += s.sectionCount();
  for (const auto& s : leafExec_) n += s.sectionCount();
  for (const auto& v : records_) n += v.size();
  return n;
}

void Ctt::serializeTo(ByteWriter& w) const {
  w.str("CYPP");
  w.uv(loopCounts_.size());
  for (size_t g = 0; g < loopCounts_.size(); ++g) {
    loopCounts_[g].serialize(w);
    taken_[g].serialize(w);
    leafExec_[g].serialize(w);
    w.uv(records_[g].size());
    for (const CommRecord& r : records_[g]) r.serialize(w);
  }
}

std::vector<uint8_t> Ctt::serialize() const {
  ByteWriter w;
  serializeTo(w);
  return w.take();
}

Ctt Ctt::deserialize(std::span<const uint8_t> data, const cst::Tree& cst) {
  ByteReader r(data);
  CYP_CHECK(r.str() == "CYPP", "per-process trace: bad magic");
  Ctt c(cst);
  const uint64_t n = r.uv();
  CYP_CHECK(n == static_cast<uint64_t>(cst.numNodes()),
            "per-process trace: node count mismatch ("
                << n << " vs " << cst.numNodes() << ")");
  for (uint64_t g = 0; g < n; ++g) {
    c.loopCounts_[g] = SectionSeq::deserialize(r);
    CYP_CHECK(!c.loopCounts_[g].hasNegative(),
              "per-process trace: negative loop count at gid " << g);
    c.taken_[g] = SectionSeq::deserialize(r);
    c.leafExec_[g] = SectionSeq::deserialize(r);
    const uint64_t nr = r.checkedCount(r.uv(), CommRecord::kMinSerializedBytes);
    r.chargeAlloc(nr * sizeof(CommRecord));
    c.records_[g].reserve(nr);
    for (uint64_t k = 0; k < nr; ++k)
      c.records_[g].push_back(CommRecord::deserialize(r));
  }
  CYP_CHECK(r.atEnd(), "per-process trace: trailing bytes");
  return c;
}

CttRecorder::CttRecorder(const cst::Tree& cst, int rank, Options opts)
    : cst_(cst),
      rank_(rank),
      opts_(opts),
      ctt_(cst),
      exec_(static_cast<size_t>(cst.numNodes()), 0),
      occ_(static_cast<size_t>(cst.numNodes()), 0) {
  stack_.push_back(Frame{cst_.root(), 0});
  exec_[static_cast<size_t>(cst_.root()->gid)] = 1;
}

void CttRecorder::closeFrame() {
  const Frame f = stack_.back();
  stack_.pop_back();
  CYP_CHECK(!stack_.empty(), "CTT recorder closed the root frame");
  if (f.node->kind == cst::NodeKind::Loop) {
    ctt_.loopCountsMut(f.node->gid).append(static_cast<int64_t>(f.loopCount));
  }
}

void CttRecorder::closeTo(size_t depth) {
  while (stack_.size() > depth) closeFrame();
}

void CttRecorder::pushLoopIteration(const cst::Node* loop) {
  // If the loop frame is already open, this Enter is the next iteration:
  // close any structures left open inside the previous iteration first.
  for (size_t i = stack_.size(); i-- > 1;) {
    if (stack_[i].node == loop) {
      closeTo(i + 1);
      ++stack_.back().loopCount;
      ++exec(loop);
      return;
    }
  }
  // Fresh activation.
  const cst::Node* child = cst::Tree::childByStruct(top(), loop->structId, -1);
  CYP_CHECK(child == loop, "loop enter does not match the current context");
  stack_.push_back(Frame{loop, 1});
  ++exec(loop);
}

void CttRecorder::onStructEnter(int structId, int /*pathIndex*/) {
  ScopedCost sc(meter());
  const cst::Node* c = cst::Tree::childByStruct(top(), structId, -1);
  if (c == nullptr) {
    // The structure may be re-entered while frames from a previous
    // iteration are still open only for loops; childByStruct against the
    // current context failing here means a malformed marker stream —
    // except for the loop-iteration case, which is resolved by scanning
    // the stack.
    for (size_t i = stack_.size(); i-- > 1;) {
      if ((stack_[i].node->kind == cst::NodeKind::Loop) &&
          stack_[i].node->structId == structId) {
        pushLoopIteration(stack_[i].node);
        return;
      }
    }
    CYP_FAIL("struct_enter " << structId << " not resolvable under gid "
                             << top()->gid);
  }
  if (c->kind == cst::NodeKind::Loop) {
    pushLoopIteration(c);
    return;
  }
  CYP_CHECK(c->kind == cst::NodeKind::Branch, "struct_enter on a non-structure");
  // Record the branch outcome: taken at the parent's current execution
  // ordinal (paper Fig. 11).
  const uint64_t parentOrdinal = exec(top()) - 1;
  ctt_.takenMut(c->gid).append(static_cast<int64_t>(parentOrdinal));
  stack_.push_back(Frame{c, 0});
  ++exec(c);
}

void CttRecorder::onStructExit(int structId) {
  ScopedCost sc(meter());
  // Find the open frame for this structure.
  for (size_t i = stack_.size(); i-- > 1;) {
    if (stack_[i].node->structId == structId &&
        (stack_[i].node->kind == cst::NodeKind::Loop ||
         stack_[i].node->kind == cst::NodeKind::Branch)) {
      closeTo(i);  // closes frames above AND the frame itself
      return;
    }
  }
  // Exit without a frame: a loop that executed zero iterations.
  const cst::Node* c = cst::Tree::childByStruct(top(), structId, -1);
  CYP_CHECK(c != nullptr && c->kind == cst::NodeKind::Loop,
            "struct_exit " << structId << " with no matching open structure");
  ctt_.loopCountsMut(c->gid).append(0);
}

void CttRecorder::onCallEnter(int callInstrId, const std::string& callee) {
  ScopedCost sc(meter());
  // Recursive re-entry? Find an open pseudo-loop for this callee.
  for (size_t i = stack_.size(); i-- > 1;) {
    const cst::Node* n = stack_[i].node;
    if (n->kind == cst::NodeKind::Loop && n->recursionLoop && n->func == callee) {
      CallLogEntry entry;
      entry.kind = CallLogEntry::Kind::Reentry;
      entry.savedFrames.assign(stack_.begin() + static_cast<ssize_t>(i) + 1,
                               stack_.end());
      stack_.resize(i + 1);
      ++stack_.back().loopCount;
      ++exec(n);
      callLog_.push_back(std::move(entry));
      return;
    }
  }
  const cst::Node* c = cst::Tree::childByCallInstr(top(), callInstrId);
  if (c == nullptr) {
    // Comm-free callee: pruned from the CST; stay transparent.
    callLog_.push_back(CallLogEntry{CallLogEntry::Kind::Transparent, 0, {}});
    return;
  }
  CallLogEntry entry;
  entry.kind = CallLogEntry::Kind::Pushed;
  entry.savedDepth = stack_.size();
  stack_.push_back(Frame{c, 0});
  ++exec(c);
  // Recursive callee: its content lives under a pseudo-loop vertex whose
  // first activation starts now (paper Fig. 8).
  if (!c->children.empty() && c->children[0]->kind == cst::NodeKind::Loop &&
      c->children[0]->recursionLoop) {
    const cst::Node* pseudo = c->children[0].get();
    stack_.push_back(Frame{pseudo, 1});
    ++exec(pseudo);
  }
  callLog_.push_back(std::move(entry));
}

void CttRecorder::onCallExit(const std::string& /*callee*/) {
  ScopedCost sc(meter());
  CYP_CHECK(!callLog_.empty(), "call exit without a call entry");
  CallLogEntry entry = std::move(callLog_.back());
  callLog_.pop_back();
  switch (entry.kind) {
    case CallLogEntry::Kind::Transparent:
      return;
    case CallLogEntry::Kind::Pushed:
      closeTo(entry.savedDepth);
      return;
    case CallLogEntry::Kind::Reentry:
      // Restore the frames that were popped when the recursion re-entered
      // the pseudo-loop, so post-call events re-attach where they belong.
      for (auto& f : entry.savedFrames) stack_.push_back(f);
      return;
  }
}

void CttRecorder::onEvent(const trace::Event& e) {
  ScopedCost sc(meter());
  const cst::Node* leaf = cst::Tree::childByCallSite(top(), e.callSiteId);
  CYP_CHECK(leaf != nullptr, "event at call site " << e.callSiteId
                                                   << " not found under gid "
                                                   << top()->gid);
  auto& recs = ctt_.recordsMut(leaf->gid);
  const uint64_t ordinal = occ_[static_cast<size_t>(leaf->gid)]++;
  // Index this occurrence by the parent's execution ordinal, so leaves
  // that fire a variable number of times per execution (Waitsome, the
  // recursion approximation) replay with the right multiplicity.
  ctt_.leafExecMut(leaf->gid).append(static_cast<int64_t>(exec(top()) - 1));
  // Paper §IV-A with the sliding-window refinement: scan the most recent
  // `window` records for a matching parameter tuple.
  CommRecord* hit = nullptr;
  const size_t limit = opts_.window < 0 ? recs.size()
                                        : std::min<size_t>(recs.size(),
                                                           static_cast<size_t>(opts_.window));
  for (size_t k = 0; k < limit; ++k) {
    CommRecord& cand = recs[recs.size() - 1 - k];
    if (cand.matches(e, rank_)) {
      hit = &cand;
      break;
    }
  }
  if (hit == nullptr) {
    recs.push_back(CommRecord::fromEvent(e, rank_));
    hit = &recs.back();
  }
  hit->absorb(e, rank_, opts_.timeMode, ordinal);
}

void CttRecorder::onFinalize() {
  ScopedCost sc(meter());
  CYP_CHECK(!finalized_, "double finalize");
  closeTo(1);
  finalized_ = true;
}

size_t CttRecorder::memoryBytes() const {
  return ctt_.memoryBytes() + stack_.capacity() * sizeof(Frame) +
         exec_.capacity() * sizeof(uint64_t) + occ_.capacity() * sizeof(uint64_t) +
         callLog_.capacity() * sizeof(CallLogEntry);
}

}  // namespace cypress::core
