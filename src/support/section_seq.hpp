// SectionSeq: a lossless stride-run codec for integer sequences.
//
// This is the cypress analogue of ScalaTrace's regular section
// descriptors: a sequence of int64 values is stored as segments
// (start, stride, count), so the paper's <first, last, stride> tuples
// (§IV-A, Figures 10–11) are represented exactly:
//   - constant runs   <k, k, ..., k>        → (k, 0, n)
//   - affine runs     <0, 1, 2, ..., k-1>   → (0, 1, k)
// Loop vertices use it for per-activation iteration counts; branch
// vertices use it for the iteration indices at which a path was taken.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bytebuf.hpp"

namespace cypress {

/// One maximal arithmetic run: values start, start+stride, ...,
/// start+stride*(count-1).
struct Section {
  int64_t start = 0;
  int64_t stride = 0;
  uint64_t count = 0;

  int64_t last() const {
    return start + stride * static_cast<int64_t>(count - 1);
  }
  bool operator==(const Section&) const = default;
};

class SectionSeq {
 public:
  SectionSeq() = default;

  /// Append one value, greedily extending the trailing section.
  void append(int64_t v) {
    if (!segs_.empty()) {
      Section& s = segs_.back();
      if (v == s.start + s.stride * static_cast<int64_t>(s.count)) {
        ++s.count;
        ++total_;
        return;
      }
      if (s.count == 1) {  // a singleton can adopt any stride
        s.stride = v - s.start;
        s.count = 2;
        ++total_;
        return;
      }
    }
    segs_.push_back(Section{v, 0, 1});
    ++total_;
  }

  /// Append `count` copies of `v` (used when merging records).
  void appendRun(int64_t v, uint64_t count) {
    if (count == 0) return;
    if (!segs_.empty()) {
      Section& s = segs_.back();
      if (s.stride == 0 && s.start == v) {
        s.count += count;
        total_ += count;
        return;
      }
      if (s.count == 1 && count == 1) {
        s.stride = v - s.start;
        s.count = 2;
        total_ += 1;
        return;
      }
    }
    if (count == 1) {
      append(v);
      return;
    }
    segs_.push_back(Section{v, 0, count});
    total_ += count;
  }

  /// Append a whole section verbatim.
  void appendSection(const Section& s) {
    CYP_CHECK(s.count > 0, "empty section");
    if (s.count == 1) {
      append(s.start);
      return;
    }
    if (s.stride == 0) {
      appendRun(s.start, s.count);
      return;
    }
    segs_.push_back(s);
    total_ += s.count;
  }

  /// Number of logical values.
  uint64_t size() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Number of stored sections (the compressed length).
  size_t sectionCount() const { return segs_.size(); }
  const std::vector<Section>& sections() const { return segs_; }

  /// True when every value equals `v`.
  bool isConstant(int64_t v) const {
    for (const Section& s : segs_)
      if (s.start != v || (s.stride != 0 && s.count > 1)) return false;
    return true;
  }

  /// True when some value is negative. Decided per section from start,
  /// stride and count, never by forming the last value, so a corrupt
  /// section cannot overflow the check.
  bool hasNegative() const {
    for (const Section& s : segs_) {
      if (s.start < 0) return true;
      if (s.stride < 0 &&
          s.count - 1 > static_cast<uint64_t>(s.start) /
                            (0 - static_cast<uint64_t>(s.stride)))
        return true;
    }
    return false;
  }

  /// Logical value at index i (O(#sections) scan; use Cursor for walks).
  int64_t at(uint64_t i) const {
    CYP_CHECK(i < total_, "SectionSeq index " << i << " out of " << total_);
    for (const Section& s : segs_) {
      if (i < s.count) return s.start + s.stride * static_cast<int64_t>(i);
      i -= s.count;
    }
    CYP_FAIL("unreachable");
  }

  /// Sum of the first `k` values, computed per section with the
  /// arithmetic-series formula — O(#sections), never O(k). This is what
  /// lets the query engine map a loop-activation range to a body
  /// execution range without expanding iteration counts.
  int64_t prefixSum(uint64_t k) const {
    CYP_CHECK(k <= total_, "SectionSeq prefix " << k << " out of " << total_);
    int64_t sum = 0;
    for (const Section& s : segs_) {
      if (k == 0) break;
      const uint64_t take = k < s.count ? k : s.count;
      const auto t = static_cast<int64_t>(take);
      sum += s.start * t + s.stride * ((t - 1) * t / 2);
      k -= take;
    }
    return sum;
  }

  /// Sum of all values.
  int64_t sum() const { return prefixSum(total_); }

  /// Number of values strictly below `v` — exact per-section counting
  /// for any stride sign, O(#sections). For the non-decreasing
  /// sequences the CTT stores (execution ordinals, branch outcomes,
  /// record occurrence ordinals) this doubles as a lower bound: it maps
  /// an execution-ordinal range to an occurrence-index range.
  uint64_t countBelow(int64_t v) const {
    uint64_t n = 0;
    for (const Section& s : segs_) n += sectionCountBelow(s, v);
    return n;
  }

  /// Number of values in the half-open range [lo, hi).
  uint64_t countInRange(int64_t lo, int64_t hi) const {
    if (hi <= lo) return 0;
    return countBelow(hi) - countBelow(lo);
  }

  /// Materialize all values (tests / small sequences only).
  std::vector<int64_t> expand() const {
    std::vector<int64_t> out;
    out.reserve(total_);
    for (const Section& s : segs_)
      for (uint64_t k = 0; k < s.count; ++k)
        out.push_back(s.start + s.stride * static_cast<int64_t>(k));
    return out;
  }

  /// Sequential O(1)-per-step reader.
  class Cursor {
   public:
    explicit Cursor(const SectionSeq& seq) : seq_(&seq) {}

    bool done() const { return seg_ >= seq_->segs_.size(); }

    int64_t next() {
      CYP_CHECK(!done(), "SectionSeq cursor exhausted");
      const Section& s = seq_->segs_[seg_];
      int64_t v = s.start + s.stride * static_cast<int64_t>(off_);
      if (++off_ == s.count) {
        ++seg_;
        off_ = 0;
      }
      return v;
    }

    /// Value next() would return, without consuming it.
    int64_t peek() const {
      CYP_CHECK(!done(), "SectionSeq cursor exhausted");
      const Section& s = seq_->segs_[seg_];
      return s.start + s.stride * static_cast<int64_t>(off_);
    }

   private:
    const SectionSeq* seq_;
    size_t seg_ = 0;
    uint64_t off_ = 0;
  };

  Cursor cursor() const { return Cursor(*this); }

  bool operator==(const SectionSeq&) const = default;

  /// Sequences are mergeable (identical logical content) iff equal; the
  /// greedy construction is canonical for a given input sequence.
  void serialize(ByteWriter& w) const {
    w.uv(segs_.size());
    for (const Section& s : segs_) {
      w.sv(s.start);
      w.sv(s.stride);
      w.uv(s.count);
    }
  }

  static SectionSeq deserialize(ByteReader& r) {
    SectionSeq q;
    // Each serialized section is at least 3 bytes (sv start, sv stride,
    // uv count), so a count implying more is corrupt.
    const uint64_t n = r.checkedCount(r.uv(), 3);
    r.chargeAlloc(n * sizeof(Section));
    q.segs_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Section s;
      s.start = r.sv();
      s.stride = r.sv();
      s.count = r.uv();
      CYP_CHECK(s.count > 0, "empty serialized section");
      CYP_CHECK(s.count <= UINT64_MAX - q.total_,
                "section sequence length overflows");
      q.segs_.push_back(s);
      q.total_ += s.count;
    }
    return q;
  }

  /// In-memory footprint, for the memory-overhead experiments.
  size_t memoryBytes() const { return sizeof(*this) + segs_.capacity() * sizeof(Section); }

  static SectionSeq compress(const std::vector<int64_t>& values) {
    SectionSeq q;
    for (int64_t v : values) q.append(v);
    return q;
  }

 private:
  /// Count of i in [0, count) with start + stride*i < v.
  static uint64_t sectionCountBelow(const Section& s, int64_t v) {
    if (s.stride == 0) return s.start < v ? s.count : 0;
    if (s.stride > 0) {
      if (s.start >= v) return 0;
      const uint64_t n =
          static_cast<uint64_t>((v - 1 - s.start) / s.stride) + 1;
      return n < s.count ? n : s.count;
    }
    // Negative stride: the values >= v form a prefix; count it and
    // subtract.
    const int64_t d = -s.stride;
    if (s.start < v) return s.count;
    const uint64_t ge = static_cast<uint64_t>((s.start - v) / d) + 1;
    return s.count - (ge < s.count ? ge : s.count);
  }

  std::vector<Section> segs_;
  uint64_t total_ = 0;
};

}  // namespace cypress
