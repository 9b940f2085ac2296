#include "replay/simulator.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "cypress/merge.hpp"
#include "query/cursor.hpp"
#include "query/engine.hpp"
#include "support/error.hpp"

namespace cypress::replay {

namespace {

using trace::Event;

/// Event-at-a-time feed for one simulation: the simulator only reads
/// each rank's current event and advances past it, so sources can
/// stream straight off the compressed trace.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual size_t numRanks() const = 0;
  /// Rank r's current event; nullptr when r is exhausted. The pointer
  /// stays valid until advance(r).
  virtual const Event* current(size_t r) = 0;
  virtual void advance(size_t r) = 0;
};

class RawSource final : public EventSource {
 public:
  explicit RawSource(const trace::RawTrace& t)
      : t_(t), next_(t.ranks.size(), 0) {}
  size_t numRanks() const override { return t_.ranks.size(); }
  const Event* current(size_t r) override {
    const auto& ev = t_.ranks[r].events;
    return next_[r] < ev.size() ? &ev[next_[r]] : nullptr;
  }
  void advance(size_t r) override { ++next_[r]; }

 private:
  const trace::RawTrace& t_;
  std::vector<size_t> next_;
};

class CompressedSource final : public EventSource {
 public:
  CompressedSource(const core::MergedCtt& m, int numRanks) {
    cursors_.reserve(static_cast<size_t>(numRanks));
    for (int r = 0; r < numRanks; ++r) cursors_.emplace_back(m, r);
  }
  size_t numRanks() const override { return cursors_.size(); }
  const Event* current(size_t r) override {
    return cursors_[r].done() ? nullptr : &cursors_[r].peek();
  }
  void advance(size_t r) override { cursors_[r].next(); }

 private:
  std::vector<query::CompressedCursor> cursors_;
};

/// Availability times of the messages queued on one channel, oldest
/// first: a vector plus a head index. std::deque would allocate a
/// 512-byte chunk for the first message, and most channels hold one or
/// two. The storage resets when the FIFO drains and is compacted once
/// half of it is consumed, so it stays within twice the live messages.
class Fifo {
 public:
  size_t size() const { return avail_.size() - head_; }
  uint64_t operator[](size_t i) const { return avail_[head_ + i]; }
  void push(uint64_t t) {
    if (head_ > 0 && 2 * head_ >= avail_.size()) {
      avail_.erase(avail_.begin(), avail_.begin() + static_cast<ssize_t>(head_));
      head_ = 0;
    }
    avail_.push_back(t);
  }
  uint64_t pop() {
    const uint64_t t = avail_[head_++];
    if (head_ == avail_.size()) {
      avail_.clear();
      head_ = 0;
    }
    return t;
  }

 private:
  std::vector<uint64_t> avail_;
  size_t head_ = 0;
};

/// The p2p channels into one destination rank, kept sorted by
/// (src, tag, comm): a lookup is a binary search at any peer count, and
/// a wildcard scan meets the sources in ascending order.
class Inbox {
 public:
  Fifo* find(int32_t src, int32_t tag, int32_t comm) {
    auto it = lowerBound(src, tag, comm);
    return it != chans_.end() && it->is(src, tag, comm) ? &it->fifo : nullptr;
  }

  Fifo& get(int32_t src, int32_t tag, int32_t comm) {
    auto it = lowerBound(src, tag, comm);
    if (it == chans_.end() || !it->is(src, tag, comm))
      it = chans_.insert(it, Channel{src, tag, comm, {}});
    return it->fifo;
  }

  /// Lowest source with a message on (tag, comm) beyond the first
  /// `claimed(fifo)` of its FIFO; -1 when there is none.
  template <class Claimed>
  int32_t lowestSource(int32_t tag, int32_t comm, Claimed claimed) {
    for (Channel& c : chans_)
      if (c.tag == tag && c.comm == comm && c.fifo.size() > claimed(&c.fifo))
        return c.src;
    return -1;
  }

 private:
  struct Channel {
    int32_t src, tag, comm;
    Fifo fifo;
    bool is(int32_t s, int32_t t, int32_t c) const {
      return src == s && tag == t && comm == c;
    }
  };

  std::vector<Channel>::iterator lowerBound(int32_t src, int32_t tag, int32_t comm) {
    return std::lower_bound(chans_.begin(), chans_.end(), std::tie(src, tag, comm),
                            [](const Channel& c, const auto& key) {
                              return std::tie(c.src, c.tag, c.comm) < key;
                            });
  }

  std::vector<Channel> chans_;
};

struct OutstandingReq {
  bool isSend = false;
  int32_t src = 0;  // receives only; may be kAnySource
  int32_t tag = 0, comm = 0;
  int64_t bytes = 0;
  int32_t postSite = -1;
  uint64_t postClock = 0;
};

/// One instance of a collective on one communicator. Members are
/// indexed by their position in the communicator's sorted member list.
struct Collective {
  ir::MpiOp op = ir::MpiOp::Barrier;
  int64_t bytes = 0;
  int arrived = 0;
  int left = 0;
  bool done = false;
  uint64_t finish = 0;
  std::vector<uint64_t> arrivals;    // per member
  std::vector<int32_t> splitResult;  // per member: new comm handle
};

/// The collectives of one communicator that some member has not left
/// yet: slots[i] is instance base + i. Members leave instances in
/// order, so retiring from the front once every member has left frees
/// every finished instance.
struct CommCollectives {
  int base = 0;
  std::deque<Collective> slots;
};

/// Everything the simulator keeps for one rank.
struct RankState {
  const Event* cur = nullptr;  // current event; nullptr when exhausted
  uint64_t clock = 0, comm = 0;
  size_t consumed = 0;          // events completed so far
  bool computeCharged = false;  // cur's computeNs is on the clock
  CommCollectives* pendingComm = nullptr;  // collective cur waits in
  int pendingSeq = 0;
  std::vector<OutstandingReq> outstanding;
  std::vector<std::pair<int, int>> collSeq;  // (comm, next instance)
  Inbox inbox;                               // channels into this rank
};

class Sim {
 public:
  Sim(EventSource& src, const simmpi::LogGP& net)
      : src_(src), net_(net), ranks_(src.numRanks()) {
    for (size_t r = 0; r < ranks_.size(); ++r) ranks_[r].cur = src_.current(r);
  }

  Prediction run() {
    const int n = static_cast<int>(ranks_.size());
    int finished = 0;
    std::vector<bool> done(static_cast<size_t>(n), false);
    while (finished < n) {
      bool progress = false;
      for (int r = 0; r < n; ++r) {
        if (done[static_cast<size_t>(r)]) continue;
        while (step(r)) progress = true;
        if (ranks_[static_cast<size_t>(r)].cur == nullptr) {
          done[static_cast<size_t>(r)] = true;
          ++finished;
          progress = true;
        }
      }
      if (!progress && finished < n) {
        std::ostringstream os;
        os << "replay deadlock:";
        for (int r = 0; r < n; ++r) {
          const RankState& s = ranks_[static_cast<size_t>(r)];
          if (!done[static_cast<size_t>(r)]) {
            os << " rank " << r << " at event " << s.consumed << " ("
               << s.cur->toString() << ")";
          }
        }
        throw Error(os.str());
      }
    }

    Prediction p;
    for (const RankState& s : ranks_) {
      p.rankClockNs.push_back(s.clock);
      p.rankCommNs.push_back(s.comm);
      p.predictedNs = std::max(p.predictedNs, s.clock);
    }
    p.totalEvents = totalEvents_;
    return p;
  }

 private:
  /// Attempt the next event of rank r. Returns true when it completed.
  bool step(int r) {
    RankState& s = ranks_[static_cast<size_t>(r)];
    if (s.cur == nullptr) return false;
    const Event& e = *s.cur;
    if (!s.computeCharged) {
      // The pre-op computation is charged once, even when the op blocks
      // and is retried.
      s.clock += e.computeNs;
      s.computeCharged = true;
    }

    switch (e.op) {
      case ir::MpiOp::Send:
      case ir::MpiOp::Isend: {
        CYP_CHECK(e.peer >= 0 && static_cast<size_t>(e.peer) < ranks_.size(),
                  "replay: send to rank " << e.peer << " outside a world of "
                                          << ranks_.size() << " ranks");
        const uint64_t sendCost = e.op == ir::MpiOp::Send
                                      ? net_.sendOverhead(e.bytes)
                                      : static_cast<uint64_t>(net_.overheadNs);
        if (e.op == ir::MpiOp::Isend) {
          OutstandingReq q;
          q.isSend = true;
          q.bytes = e.bytes;
          q.postSite = e.callSiteId;
          q.postClock = s.clock;
          s.outstanding.push_back(q);
        }
        ranks_[static_cast<size_t>(e.peer)]
            .inbox.get(r, e.tag, e.comm)
            .push(s.clock + net_.transferTime(e.bytes));
        charge(s, sendCost);
        return finishEvent(r);
      }
      case ir::MpiOp::Recv: {
        const int32_t src = e.peer == trace::kAnySource ? e.matchedSource : e.peer;
        CYP_CHECK(src >= 0, "replay: Recv without a resolvable source");
        Fifo* f = s.inbox.find(src, e.tag, e.comm);
        if (f == nullptr || f->size() == 0) return false;  // blocked
        wait(s, std::max(s.clock, f->pop()) + net_.recvOverhead(e.bytes));
        return finishEvent(r);
      }
      case ir::MpiOp::Irecv: {
        OutstandingReq q;
        q.isSend = false;
        q.src = e.peer;
        q.tag = e.tag;
        q.comm = e.comm;
        q.bytes = e.bytes;
        q.postSite = e.callSiteId;
        q.postClock = s.clock;
        s.outstanding.push_back(q);
        charge(s, static_cast<uint64_t>(net_.overheadNs));
        return finishEvent(r);
      }
      case ir::MpiOp::Wait:
      case ir::MpiOp::Waitany:
      case ir::MpiOp::Waitsome: {
        auto& reqs = s.outstanding;
        // The completed request is identified by its posting site (the
        // paper's request->GID mapping), FIFO among same-site posts.
        size_t pick = reqs.size();
        for (size_t i = 0; i < reqs.size(); ++i) {
          if (reqs[i].postSite == static_cast<int32_t>(e.reqId)) {
            pick = i;
            break;
          }
        }
        CYP_CHECK(pick < reqs.size(),
                  "replay: wait for unknown request site " << e.reqId);
        const OutstandingReq& q = reqs[pick];
        uint64_t completion = q.postClock;
        if (q.isSend) {
          completion += net_.sendOverhead(q.bytes);
        } else {
          CYP_CHECK(q.src != trace::kAnySource || e.matchedSource >= 0,
                    "replay: wildcard wait without matched source");
          const int32_t src = q.src == trace::kAnySource ? e.matchedSource : q.src;
          Fifo* f = s.inbox.find(src, q.tag, q.comm);
          if (f == nullptr || f->size() == 0) return false;  // not yet available
          completion = std::max(completion, f->pop()) + net_.recvOverhead(q.bytes);
        }
        reqs.erase(reqs.begin() + static_cast<ssize_t>(pick));
        wait(s, std::max(s.clock, completion));
        return finishEvent(r);
      }
      case ir::MpiOp::Waitall: {
        // All or nothing: claim one message per receive, in posting
        // order, without consuming; pop the claims only once every
        // request can complete.
        claims_.clear();
        uint64_t latest = s.clock;
        for (const OutstandingReq& q : s.outstanding) {
          if (q.isSend) {
            latest = std::max(latest, q.postClock + net_.sendOverhead(q.bytes));
            continue;
          }
          int32_t src = q.src;
          if (src == trace::kAnySource) {
            // The lowest source with a message that no earlier receive
            // of this Waitall has claimed.
            src = e.matchedSource >= 0
                      ? e.matchedSource
                      : s.inbox.lowestSource(q.tag, q.comm,
                                             [&](Fifo* f) { return claimed(f); });
            if (src < 0) return false;
          }
          Fifo* f = s.inbox.find(src, q.tag, q.comm);
          if (f == nullptr) return false;
          size_t& used = claimed(f);
          if (used >= f->size()) return false;
          latest = std::max(latest, std::max(q.postClock, (*f)[used]) +
                                        net_.recvOverhead(q.bytes));
          ++used;
        }
        for (const auto& [f, n] : claims_)
          for (size_t i = 0; i < n; ++i) f->pop();
        s.outstanding.clear();
        wait(s, latest + net_.recvOverhead(0));
        return finishEvent(r);
      }
      case ir::MpiOp::Barrier:
      case ir::MpiOp::Bcast:
      case ir::MpiOp::Reduce:
      case ir::MpiOp::Allreduce:
      case ir::MpiOp::Allgather:
      case ir::MpiOp::Alltoall:
      case ir::MpiOp::Gather:
      case ir::MpiOp::Scatter:
      case ir::MpiOp::Scan:
      case ir::MpiOp::CommSplit:
        return stepCollective(r, e);
    }
    CYP_FAIL("replay: bad op");
  }

  /// Time inside an MPI op that does not wait for a peer.
  static void charge(RankState& s, uint64_t cost) {
    s.clock += cost;
    s.comm += cost;
  }

  /// Move the clock to `until`, counting the interval as communication.
  static void wait(RankState& s, uint64_t until) {
    s.comm += until - s.clock;
    s.clock = until;
  }

  bool finishEvent(int r) {
    RankState& s = ranks_[static_cast<size_t>(r)];
    src_.advance(static_cast<size_t>(r));
    s.cur = src_.current(static_cast<size_t>(r));
    s.computeCharged = false;
    ++s.consumed;
    ++totalEvents_;
    return true;
  }

  /// Messages of `f` that the Waitall being attempted has claimed.
  size_t& claimed(Fifo* f) {
    for (auto& [g, n] : claims_)
      if (g == f) return n;
    return claims_.emplace_back(f, 0).second;
  }

  bool stepCollective(int r, const Event& e) {
    RankState& s = ranks_[static_cast<size_t>(r)];
    if (s.pendingComm == nullptr) {
      // First attempt: register the arrival.
      const std::vector<int>& members = commMembers(e.comm);
      const auto pos = std::lower_bound(members.begin(), members.end(), r);
      CYP_CHECK(pos != members.end() && *pos == r,
                "replay: rank " << r << " not in communicator " << e.comm);
      const auto me = static_cast<size_t>(pos - members.begin());
      CommCollectives& cc = colls_[e.comm];
      const int seq = nextSeq(s, e.comm);
      Collective& c = slot(cc, seq);
      if (c.arrived == 0) {
        c.op = e.op;
        c.bytes = e.op == ir::MpiOp::CommSplit ? 0 : e.bytes;
        c.arrivals.assign(members.size(), 0);
        if (e.op == ir::MpiOp::CommSplit) c.splitResult.assign(members.size(), -1);
      } else {
        CYP_CHECK(c.op == e.op &&
                      (e.op == ir::MpiOp::CommSplit || c.bytes == e.bytes),
                  "replay: collective mismatch at " << ir::mpiOpName(e.op));
      }
      c.arrivals[me] = s.clock;
      if (e.op == ir::MpiOp::CommSplit) {
        // The recorded result handle defines the group membership; the
        // replay rebuilds comms from it rather than recomputing.
        c.splitResult[me] = static_cast<int32_t>(e.reqId);
      }
      ++c.arrived;
      if (c.arrived == static_cast<int>(members.size())) {
        const uint64_t t0 = *std::max_element(c.arrivals.begin(), c.arrivals.end());
        const ir::MpiOp costOp =
            e.op == ir::MpiOp::CommSplit ? ir::MpiOp::Barrier : e.op;
        c.finish = t0 + net_.collectiveCost(costOp, c.bytes,
                                            static_cast<int>(members.size()));
        c.done = true;
        if (e.op == ir::MpiOp::CommSplit) {
          // Group members by recorded handle; members are sorted, so
          // each group is too.
          std::map<int32_t, std::vector<int>> groups;
          for (size_t i = 0; i < members.size(); ++i)
            if (c.splitResult[i] >= 0) groups[c.splitResult[i]].push_back(members[i]);
          for (auto& [id, ranks] : groups) commMembers_[id] = std::move(ranks);
        }
      }
      s.pendingComm = &cc;
      s.pendingSeq = seq;
    }
    CommCollectives& cc = *s.pendingComm;
    Collective& c = cc.slots[static_cast<size_t>(s.pendingSeq - cc.base)];
    if (!c.done) return false;
    // The clock has not moved since the arrival was registered.
    wait(s, c.finish);
    s.pendingComm = nullptr;
    ++c.left;
    while (!cc.slots.empty() && cc.slots.front().done &&
           cc.slots.front().left == cc.slots.front().arrived) {
      cc.slots.pop_front();
      ++cc.base;
    }
    return finishEvent(r);
  }

  /// Rank s's next instance number on `comm`.
  static int nextSeq(RankState& s, int comm) {
    for (auto& [c, seq] : s.collSeq)
      if (c == comm) return seq++;
    s.collSeq.emplace_back(comm, 1);
    return 0;
  }

  static Collective& slot(CommCollectives& cc, int seq) {
    const auto i = static_cast<size_t>(seq - cc.base);
    while (i >= cc.slots.size()) cc.slots.emplace_back();
    return cc.slots[i];
  }

  const std::vector<int>& commMembers(int comm) {
    if (comm == 0 && commMembers_.find(0) == commMembers_.end()) {
      std::vector<int> world(ranks_.size());
      for (size_t i = 0; i < world.size(); ++i) world[i] = static_cast<int>(i);
      commMembers_[0] = std::move(world);
    }
    auto it = commMembers_.find(comm);
    CYP_CHECK(it != commMembers_.end(), "replay: unknown communicator " << comm);
    return it->second;
  }

  EventSource& src_;
  simmpi::LogGP net_;
  uint64_t totalEvents_ = 0;
  std::vector<RankState> ranks_;
  std::vector<std::pair<Fifo*, size_t>> claims_;  // Waitall scratch
  std::map<int, CommCollectives> colls_;
  std::map<int, std::vector<int>> commMembers_;
};

}  // namespace

double Prediction::commPercent() const {
  if (rankClockNs.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (size_t r = 0; r < rankClockNs.size(); ++r) {
    if (rankClockNs[r] == 0) continue;
    total += static_cast<double>(rankCommNs[r]) /
             static_cast<double>(rankClockNs[r]);
    ++counted;
  }
  return counted ? 100.0 * total / counted : 0.0;
}

namespace {

/// Replay needs every rank of the world present: a partial trace cannot
/// satisfy its own collectives and p2p matches. Returns the world size.
int checkFullCoverage(const core::MergedCtt& m) {
  const RankSet covered = query::coveredRanks(m);
  CYP_CHECK(!covered.empty(), "replay: empty trace");
  if (!m.lostRanks().empty()) {
    std::ostringstream os;
    os << "replay: merged trace is missing lost ranks:";
    for (int32_t r : m.lostRanks().ranks()) os << " " << r;
    throw Error(os.str());
  }
  const int numRanks = covered.ranks().back() + 1;
  CYP_CHECK(covered.size() == static_cast<size_t>(numRanks),
            "replay: rank coverage is not contiguous ("
                << covered.size() << " of " << numRanks << " ranks)");
  return numRanks;
}

}  // namespace

Prediction simulate(const trace::RawTrace& t, const simmpi::LogGP& net) {
  CYP_CHECK(!t.ranks.empty(), "replay: empty trace");
  RawSource src(t);
  return Sim(src, net).run();
}

Prediction simulate(const core::MergedCtt& m, const simmpi::LogGP& net) {
  const int numRanks = checkFullCoverage(m);
  CompressedSource src(m, numRanks);
  return Sim(src, net).run();
}

Prediction simulateRecordedTimes(const trace::RawTrace& t) {
  CYP_CHECK(!t.ranks.empty(), "replay: empty trace");
  Prediction p;
  p.rankClockNs.resize(t.ranks.size(), 0);
  p.rankCommNs.resize(t.ranks.size(), 0);
  for (size_t r = 0; r < t.ranks.size(); ++r) {
    uint64_t clock = 0, comm = 0;
    for (const trace::Event& e : t.ranks[r].events) {
      clock += e.computeNs + e.durationNs;
      comm += e.durationNs;
      ++p.totalEvents;
    }
    p.rankClockNs[r] = clock;
    p.rankCommNs[r] = comm;
    p.predictedNs = std::max(p.predictedNs, clock);
  }
  return p;
}

Prediction simulateRecordedTimes(const core::MergedCtt& m) {
  const int numRanks = checkFullCoverage(m);
  Prediction p;
  p.rankClockNs.assign(static_cast<size_t>(numRanks), 0);
  p.rankCommNs.assign(static_cast<size_t>(numRanks), 0);
  const int n = m.cst().numNodes();
  for (int r = 0; r < numRanks; ++r) {
    uint64_t clock = 0, comm = 0;
    for (int g = 0; g < n; ++g) {
      const core::LeafEntry* e = m.leafFor(g, r);
      if (e == nullptr) continue;
      for (const core::CommRecord& rec : e->records) {
        // Decompressed events carry the record's rounded means, so
        // count * rounded-mean reproduces the expanded sums exactly.
        const auto dur = static_cast<uint64_t>(rec.duration.mean());
        const auto cmp = static_cast<uint64_t>(rec.compute.mean());
        clock += rec.count * (cmp + dur);
        comm += rec.count * dur;
        p.totalEvents += rec.count;
      }
    }
    p.rankClockNs[static_cast<size_t>(r)] = clock;
    p.rankCommNs[static_cast<size_t>(r)] = comm;
    p.predictedNs = std::max(p.predictedNs, clock);
  }
  return p;
}

}  // namespace cypress::replay
