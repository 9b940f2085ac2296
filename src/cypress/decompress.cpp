#include "cypress/decompress.hpp"

#include "support/error.hpp"

namespace cypress::core {

RankWalk::RankWalk(const MergedCtt& m, int rank) : rank_(rank) {
  const int n = m.cst().numNodes();
  loops_.resize(static_cast<size_t>(n));
  taken_.resize(static_cast<size_t>(n));
  leaves_.resize(static_cast<size_t>(n));
  exec_.assign(static_cast<size_t>(n), 0);
  for (int g = 0; g < n; ++g) {
    const auto i = static_cast<size_t>(g);
    if (const SectionSeq* s = m.loopSeqFor(g, rank)) loops_[i].emplace(*s);
    if (const SectionSeq* s = m.takenSeqFor(g, rank)) taken_[i].emplace(*s);
    if (const LeafEntry* e = m.leafFor(g, rank)) {
      LeafState& l = leaves_[i];
      l.exec.emplace(e->execOrdinals);
      l.recs.reserve(e->records.size());
      for (const CommRecord& rec : e->records) {
        std::optional<SectionSeq::Cursor> matched;
        if (!rec.matchedSources.empty()) matched = rec.matchedSources.cursor();
        l.recs.push_back(RecState{rec.ordinals.cursor(), matched, &rec});
      }
    }
  }
  push(m.cst().root(), 1);
}

bool RankWalk::fill(std::vector<trace::Event>& out, size_t max) {
  while (!stack_.empty()) {
    // push() invalidates `f`: every case that pushes leaves `f` first.
    Frame& f = stack_.back();
    const auto& children = f.node->children;
    if (f.child == children.size()) {
      if (--f.iters > 0) {  // the loop's next iteration
        f.exec = exec_[static_cast<size_t>(f.node->gid)]++;
        f.child = 0;
      } else {
        stack_.pop_back();
      }
      continue;
    }
    const cst::Node* child = children[f.child].get();
    const auto gid = static_cast<size_t>(child->gid);
    switch (child->kind) {
      case cst::NodeKind::Comm:
        // Every occurrence recorded for this execution of the enclosing
        // region: exactly one for ordinary leaves; zero or several for
        // partial-completion ops and recursion unwinds.
        while (max > 0 && takeAt(leaves_[gid].exec, f.exec)) {
          fillEvent(child->gid, out.emplace_back());
          --max;
        }
        if (max == 0) return true;  // out is full: resume at this leaf
        ++f.child;
        break;
      case cst::NodeKind::Loop: {
        const uint64_t iters = loopCount(child->gid);
        ++f.child;
        if (iters > 0) push(child, iters);
        break;
      }
      case cst::NodeKind::Branch:
        if (takeAt(taken_[gid], f.exec))
          push(child, 1);
        else
          ++f.child;
        break;
      case cst::NodeKind::Call:
        ++f.child;
        push(child, 1);
        break;
      case cst::NodeKind::Root:
        CYP_FAIL("nested root in CST");
    }
  }
  checkDrained();
  return false;
}

uint64_t RankWalk::loopCount(int gid) {
  auto& cur = loops_[static_cast<size_t>(gid)];
  CYP_CHECK(cur.has_value() && !cur->done(),
            "decompress: missing loop activation at gid " << gid);
  const int64_t iters = cur->next();
  CYP_CHECK(iters >= 0,
            "decompress: negative iteration count at gid " << gid);
  return static_cast<uint64_t>(iters);
}

void RankWalk::fillEvent(int gid, trace::Event& e) {
  LeafState& l = leaves_[static_cast<size_t>(gid)];
  // Select the record whose next occurrence ordinal is now.
  const int64_t n = static_cast<int64_t>(l.nextOrdinal++);
  RecState* state = nullptr;
  for (RecState& rs : l.recs) {
    if (!rs.ord.done() && rs.ord.peek() == n) {
      state = &rs;
      break;
    }
  }
  CYP_CHECK(state != nullptr, "decompress: no record covers occurrence "
                                  << n << " at gid " << gid);
  state->ord.next();
  const CommRecord& rec = *state->rec;

  e.op = rec.op;
  e.peer = rec.peer.decode(rank_);
  e.bytes = rec.bytes;
  e.tag = rec.tag;
  e.comm = rec.comm;
  e.callSiteId = rec.callSiteId;
  e.reqId = rec.reqSite;
  if (state->matched.has_value())
    e.matchedSource = static_cast<int32_t>(state->matched->next()) + rank_;
  e.durationNs = static_cast<uint64_t>(rec.duration.mean());
  e.computeNs = static_cast<uint64_t>(rec.compute.mean());
}

void RankWalk::checkDrained() const {
  for (size_t g = 0; g < leaves_.size(); ++g) {
    CYP_CHECK(!loops_[g].has_value() || loops_[g]->done(),
              "decompress: loop activations left over at gid " << g);
    CYP_CHECK(!taken_[g].has_value() || taken_[g]->done(),
              "decompress: branch outcomes left over at gid " << g);
    const LeafState& l = leaves_[g];
    CYP_CHECK(!l.exec.has_value() || l.exec->done(),
              "decompress: leaf occurrences left over at gid " << g);
    for (const RecState& rs : l.recs) {
      CYP_CHECK(rs.ord.done(), "decompress: records left over at gid " << g);
      CYP_CHECK(!rs.matched.has_value() || rs.matched->done(),
                "decompress: matched sources left over at gid " << g);
    }
  }
}

size_t RankWalk::memoryBytes() const {
  size_t bytes = loops_.capacity() * sizeof(loops_[0]) +
                 taken_.capacity() * sizeof(taken_[0]) +
                 leaves_.capacity() * sizeof(LeafState) +
                 exec_.capacity() * sizeof(uint64_t) +
                 stack_.capacity() * sizeof(Frame);
  for (const LeafState& l : leaves_)
    bytes += l.recs.capacity() * sizeof(RecState);
  return bytes;
}

std::vector<trace::Event> decompressRank(const MergedCtt& m, int rank) {
  std::vector<trace::Event> out;
  RankWalk(m, rank).fill(out, SIZE_MAX);
  return out;
}

trace::RawTrace decompressAll(const MergedCtt& m, int numRanks) {
  trace::RawTrace t;
  t.ranks.resize(static_cast<size_t>(numRanks));
  for (int r = 0; r < numRanks; ++r) {
    t.ranks[static_cast<size_t>(r)].rank = r;
    t.ranks[static_cast<size_t>(r)].events = decompressRank(m, r);
  }
  return t;
}

}  // namespace cypress::core
