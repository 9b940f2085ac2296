// The Compressed Trace Tree (CTT) and the on-the-fly intra-process
// compressor (paper §IV-A).
//
// The CTT shares the CST's shape; per-vertex payloads are stored in
// gid-indexed arrays:
//   - loop vertices:   per-activation iteration counts (SectionSeq —
//                      the paper's <first,last,stride> tuples, Fig. 10)
//   - branch vertices: parent-execution ordinals at which the path was
//                      taken (Fig. 11's <0,8,2> encoding)
//   - comm leaves:     CommRecord runs, merged against the last record
//
// CttRecorder implements the PMPI observer: it maintains the "program
// pointer" p of the paper — a stack of active structure frames — and
// fills event details into the static template. With Options::meterHooks
// on, all hook work is charged to a CostMeter so the intra-process
// overhead experiments measure exactly the compression cost; off (the
// default) the hooks read no clock.
#pragma once

#include <cstdint>
#include <vector>

#include "cst/tree.hpp"
#include "cypress/record.hpp"
#include "support/timer.hpp"
#include "trace/observer.hpp"

namespace cypress::core {

/// Per-process populated trace tree.
class Ctt {
 public:
  explicit Ctt(const cst::Tree& cst)
      : cst_(&cst),
        loopCounts_(static_cast<size_t>(cst.numNodes())),
        taken_(static_cast<size_t>(cst.numNodes())),
        records_(static_cast<size_t>(cst.numNodes())),
        leafExec_(static_cast<size_t>(cst.numNodes())) {}

  const cst::Tree& cst() const { return *cst_; }

  const SectionSeq& loopCounts(int gid) const {
    return loopCounts_[static_cast<size_t>(gid)];
  }
  const SectionSeq& taken(int gid) const { return taken_[static_cast<size_t>(gid)]; }
  const std::vector<CommRecord>& records(int gid) const {
    return records_[static_cast<size_t>(gid)];
  }
  /// Parent-execution ordinal of each event at this leaf (in occurrence
  /// order). Ordinary leaves emit exactly once per parent execution, so
  /// this compresses to a single <0,n-1,1> tuple; partial-completion ops
  /// (Waitsome) may emit zero or several events per execution.
  const SectionSeq& leafExec(int gid) const {
    return leafExec_[static_cast<size_t>(gid)];
  }

  SectionSeq& loopCountsMut(int gid) { return loopCounts_[static_cast<size_t>(gid)]; }
  SectionSeq& takenMut(int gid) { return taken_[static_cast<size_t>(gid)]; }
  std::vector<CommRecord>& recordsMut(int gid) {
    return records_[static_cast<size_t>(gid)];
  }
  SectionSeq& leafExecMut(int gid) { return leafExec_[static_cast<size_t>(gid)]; }

  /// Exact heap footprint of the compressed payload (Fig. 16 memory).
  size_t memoryBytes() const;

  /// Total number of compressed items (records + count/taken sections):
  /// the per-process "n" of the paper's complexity discussion.
  size_t compressedItems() const;

  /// Per-process trace file (the paper's model: each process writes its
  /// compressed trace at MPI_Finalize; merging can then happen offline).
  /// The CST is NOT embedded — the reader must supply the same tree.
  /// serializeTo streams into `w` — pair it with a sink-backed writer
  /// (e.g. over flate::StreamingCompressor) so the CYPP bytes leave RAM
  /// as they are produced; serialize() is the materializing wrapper.
  void serializeTo(ByteWriter& w) const;
  std::vector<uint8_t> serialize() const;
  static Ctt deserialize(std::span<const uint8_t> data, const cst::Tree& cst);

 private:
  const cst::Tree* cst_;
  std::vector<SectionSeq> loopCounts_;
  std::vector<SectionSeq> taken_;
  std::vector<std::vector<CommRecord>> records_;
  std::vector<SectionSeq> leafExec_;
};

/// On-the-fly intra-process compressor for one rank.
class CttRecorder final : public trace::Observer {
 public:
  struct Options {
    TimeMode timeMode;
    /// How many existing records to scan for a parameter match before
    /// opening a new one (the paper's sliding window, §IV-A). 1 degrades
    /// to compare-with-last; larger windows capture loop-carried
    /// parameter cycles at slightly higher per-event cost.
    int window;
    /// Charge every hook's wall time to cost() (paper Fig. 16). Off by
    /// default: two clock reads per hook cost about as much as the hook.
    bool meterHooks = false;
    Options() : timeMode(TimeMode::MeanStddev), window(64) {}
    explicit Options(TimeMode m, int w = 64) : timeMode(m), window(w) {}
  };

  CttRecorder(const cst::Tree& cst, int rank, Options opts = Options());

  // trace::Observer:
  void onEvent(const trace::Event& e) override;
  void onStructEnter(int structId, int pathIndex) override;
  void onStructExit(int structId) override;
  void onCallEnter(int callInstrId, const std::string& callee) override;
  void onCallExit(const std::string& callee) override;
  void onFinalize() override;

  const Ctt& ctt() const { return ctt_; }
  int rank() const { return rank_; }
  bool finalized() const { return finalized_; }

  /// CPU time spent inside the hooks (the tool's intra-process overhead);
  /// stays zero unless Options::meterHooks.
  const CostMeter& cost() const { return cost_; }

  /// CTT payload + recorder bookkeeping memory.
  size_t memoryBytes() const;

 private:
  struct Frame {
    const cst::Node* node = nullptr;
    uint64_t loopCount = 0;  // iterations in the current activation
  };
  struct CallLogEntry {
    enum class Kind : uint8_t { Transparent, Pushed, Reentry } kind;
    size_t savedDepth = 0;            // Pushed: stack depth before push
    std::vector<Frame> savedFrames;   // Reentry: frames popped at re-entry
  };

  const cst::Node* top() const { return stack_.back().node; }
  uint64_t& exec(const cst::Node* n) { return exec_[static_cast<size_t>(n->gid)]; }

  /// Close one frame (flush loop activation counts).
  void closeFrame();
  /// Close frames until the stack has `depth` entries.
  void closeTo(size_t depth);
  void pushLoopIteration(const cst::Node* loop);
  CostMeter* meter() { return opts_.meterHooks ? &cost_ : nullptr; }

  const cst::Tree& cst_;
  int rank_;
  Options opts_;
  Ctt ctt_;
  std::vector<Frame> stack_;
  std::vector<CallLogEntry> callLog_;
  std::vector<uint64_t> exec_;  // per-gid execution ordinal counters
  std::vector<uint64_t> occ_;   // per-leaf event occurrence counters
  CostMeter cost_;
  bool finalized_ = false;
};

}  // namespace cypress::core
