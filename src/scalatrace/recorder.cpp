#include "scalatrace/recorder.hpp"

#include "support/error.hpp"

namespace cypress::scalatrace {

Recorder::Recorder(int rank, Options opts) : rank_(rank), opts_(opts) {
  CYP_CHECK(opts_.window >= 1, "window must be positive");
}

void Recorder::onEvent(const trace::Event& e) {
  ScopedCost sc(meter());
  seq_.push_back(Element::fromEvent(e, rank_));
  tryCompress(/*final=*/false);
}

void Recorder::tryCompress(bool final) {
  bool changed = true;
  while (changed) {
    changed = false;
    const size_t n = seq_.size();
    // Repeats are only folded while the tail element is a settled plain
    // event: an RSD at the tail may still be growing (its inner loop has
    // not finished), and folding it early would freeze a partial
    // iteration into the pattern. The finalize pass relaxes this.
    const bool tailSettled = final || (n > 0 && !seq_[n - 1].isRsd);

    // Case A — RSD continuation: ... RSD{m1..mk} m1'..mk'  =>  iters+1.
    for (size_t k = 1; tailSettled &&
                       k <= static_cast<size_t>(opts_.window) && k + 1 <= n;
         ++k) {
      Element& r = seq_[n - k - 1];
      if (!r.isRsd || r.members.size() != k) continue;
      bool ok = true;
      for (size_t i = 0; i < k && ok; ++i)
        ok = r.members[i].canFold(seq_[n - k + i], opts_.flavor);
      if (!ok) continue;
      for (size_t i = 0; i < k; ++i)
        r.members[i].fold(std::move(seq_[n - k + i]));
      r.openCount += 1;
      seq_.resize(n - k);
      changed = true;
      break;
    }
    if (changed) continue;

    // Case B — adjacent RSD concatenation: RSD{m} RSD{m}  =>  one RSD.
    if (n >= 2 && seq_[n - 2].isRsd && seq_[n - 1].isRsd &&
        seq_[n - 2].members.size() == seq_[n - 1].members.size()) {
      Element& b = seq_[n - 2];
      Element& a = seq_[n - 1];
      // The tail RSD is always a single open visit.
      if (a.closedVisits.empty() && a.openCount > 0) {
        bool ok = true;
        for (size_t i = 0; i < b.members.size() && ok; ++i)
          ok = b.members[i].canFold(a.members[i], opts_.flavor);
        if (ok) {
          for (size_t i = 0; i < b.members.size(); ++i)
            b.members[i].fold(std::move(a.members[i]));
          b.openCount += a.openCount;
          seq_.pop_back();
          changed = true;
          continue;
        }
      }
    }

    // Case C — fresh repeat: X1..Xk X1'..Xk'  =>  RSD{X1..Xk} x2.
    for (size_t k = 1; tailSettled &&
                       k <= static_cast<size_t>(opts_.window) && 2 * k <= n;
         ++k) {
      bool ok = true;
      for (size_t i = 0; i < k && ok; ++i)
        ok = seq_[n - 2 * k + i].canFold(seq_[n - k + i], opts_.flavor);
      if (!ok) continue;
      Element rsd;
      rsd.isRsd = true;
      rsd.openCount = 2;
      rsd.members.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        Element m = std::move(seq_[n - 2 * k + i]);
        m.fold(std::move(seq_[n - k + i]));
        rsd.members.push_back(std::move(m));
      }
      seq_.resize(n - 2 * k);
      seq_.push_back(std::move(rsd));
      changed = true;
      break;
    }
  }
}

void Recorder::onFinalize() {
  ScopedCost sc(meter());
  CYP_CHECK(!finalized_, "double finalize");
  tryCompress(/*final=*/true);  // squeeze the tail once nothing can grow
  for (Element& e : seq_) e.normalize();
  finalized_ = true;
}

size_t Recorder::memoryBytes() const {
  size_t t = sizeof(*this) + seq_.capacity() * sizeof(Element);
  for (const Element& e : seq_) t += e.memoryBytes() - sizeof(Element);
  return t;
}

std::vector<uint8_t> Recorder::serialize() const {
  CYP_CHECK(finalized_, "serialize before finalize");
  return serializeSequence(seq_);
}

std::vector<uint8_t> Recorder::serializeSequence(
    const std::vector<Element>& seq) {
  ByteWriter w;
  w.str("STR1");
  w.uv(seq.size());
  for (const Element& e : seq) e.serialize(w);
  return w.take();
}

std::vector<Element> Recorder::deserializeSequence(
    std::span<const uint8_t> data) {
  ByteReader r(data);
  CYP_CHECK(r.str() == "STR1", "scalatrace trace: bad magic");
  const uint64_t n = r.checkedCount(r.uv(), 3);
  r.chargeAlloc(n * sizeof(Element));
  std::vector<Element> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) out.push_back(Element::deserialize(r));
  CYP_CHECK(r.atEnd(), "scalatrace trace: trailing bytes");
  return out;
}

}  // namespace cypress::scalatrace
