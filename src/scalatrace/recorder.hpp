// Intra-process dynamic compression for the ScalaTrace baselines.
//
// Unlike CYPRESS, the dynamic recorders receive no static structure: they
// discover repetition bottom-up by searching the tail of the compressed
// queue for repeats (greedy first-match, as in Noeth et al.). With
// Options::meterHooks on, every hook is charged to a CostMeter; the
// per-event search over the window is the source of the intra-process
// overhead the paper measures in Fig. 16.
#pragma once

#include <cstdint>
#include <vector>

#include "scalatrace/element.hpp"
#include "support/timer.hpp"
#include "trace/observer.hpp"

namespace cypress::scalatrace {

class Recorder final : public trace::Observer {
 public:
  struct Options {
    Flavor flavor;
    /// Maximal repeat length searched at the queue tail.
    int window;
    /// Charge every hook's wall time to cost() (paper Fig. 16); off by
    /// default, when the hooks read no clock.
    bool meterHooks = false;
    Options() : flavor(Flavor::V1), window(24) {}
    Options(Flavor f, int w = 24) : flavor(f), window(w) {}
  };

  Recorder(int rank, Options opts = Options());

  // trace::Observer: dynamic tools see only the MPI events; the
  // structure hooks are ignored (they would not exist without CYPRESS's
  // static pass).
  void onEvent(const trace::Event& e) override;
  void onStructEnter(int, int) override {}
  void onStructExit(int) override {}
  void onCallEnter(int, const std::string&) override {}
  void onCallExit(const std::string&) override {}
  void onFinalize() override;

  const std::vector<Element>& sequence() const { return seq_; }
  int rank() const { return rank_; }
  bool finalized() const { return finalized_; }
  /// Hook cost; stays zero unless Options::meterHooks.
  const CostMeter& cost() const { return cost_; }
  size_t memoryBytes() const;

  /// Serialized per-process compressed trace (for size accounting).
  std::vector<uint8_t> serialize() const;

  /// Serialize a bare element sequence in the same `STR1` format.
  static std::vector<uint8_t> serializeSequence(const std::vector<Element>& seq);

  /// Parse a per-process compressed trace (`STR1`) back into its element
  /// sequence. Throws cypress::Error on malformed input.
  static std::vector<Element> deserializeSequence(std::span<const uint8_t> data);

 private:
  void tryCompress(bool final);
  CostMeter* meter() { return opts_.meterHooks ? &cost_ : nullptr; }

  int rank_;
  Options opts_;
  std::vector<Element> seq_;
  CostMeter cost_;
  bool finalized_ = false;
};

}  // namespace cypress::scalatrace
