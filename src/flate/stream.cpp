#include "flate/stream.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "flate/block.hpp"
#include "flate/lz77.hpp"
#include "support/bounded_queue.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cypress::flate {

/// One dispatched shard: raw bytes in, compressed block out.
struct StreamingCompressor::Job {
  std::vector<uint8_t> raw;
  std::vector<uint8_t> block;
  std::atomic<bool> done{false};
};

/// State shared with pool closures. Pool tasks capture a shared_ptr to
/// this — never the compressor — so an abandoned StreamingCompressor
/// (exception unwinding) can destruct while shards are still queued;
/// the tasks then drop their work and the state dies with the last
/// reference.
struct StreamingCompressor::Impl {
  Impl(MatchParams params, int lanes)
      : mp(params),
        threads(lanes),
        pool(lanes > 1 ? &ThreadPool::shared() : nullptr),
        queue(static_cast<size_t>(lanes) * 2) {}

  const MatchParams mp;
  const int threads;
  ThreadPool* const pool;  // the shared pool; null when single-lane
  BoundedQueue<std::shared_ptr<Job>> queue;
  std::mutex mu;
  std::condition_variable cv;       // signaled when any job completes
  std::exception_ptr error;         // first failure, guarded by mu
  std::atomic<bool> abandoned{false};

  void compressJob(Job& j) {
    if (!abandoned.load(std::memory_order_relaxed)) {
      try {
        j.block = detail::compressBlock(j.raw, mp);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
    j.raw.clear();
    j.raw.shrink_to_fit();
    j.done.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  }

  /// Pop and compress one queued shard on the calling thread; the
  /// producer's answer to a full queue and the drainer's answer to an
  /// unfinished shard.
  bool runOne() {
    auto job = queue.tryPop();
    if (!job) return false;
    compressJob(**job);
    return true;
  }
};

StreamingCompressor::StreamingCompressor(ByteSink& out, Level level,
                                         int threads)
    : out_(&out) {
  impl_ = std::make_shared<Impl>(MatchParams::forChain(static_cast<int>(level)),
                                 threads > 1 ? threads : 1);
  pending_.reserve(kShardBytes);
}

StreamingCompressor::~StreamingCompressor() {
  // Abandoned mid-stream: make queued shards no-ops and let in-flight
  // pool closures run out against the shared state.
  impl_->abandoned.store(true, std::memory_order_relaxed);
  impl_->queue.close();
}

void StreamingCompressor::dispatchPending() {
  shardCrcs_.push_back(crc32(pending_));
  shardLens_.push_back(static_cast<uint32_t>(pending_.size()));

  auto job = std::make_shared<Job>();
  job->raw = std::move(pending_);
  pending_ = {};
  pending_.reserve(kShardBytes);

  if (impl_->threads <= 1) {
    // Single-lane: compress at cut time on this thread. Still bounded
    // memory (one shard live), still byte-identical.
    jobsDone_.push_back(job);
    impl_->compressJob(*job);
    return;
  }

  // Backpressure without blocking: a full queue means the compressors
  // are behind, so this thread becomes one — pop and compress a shard,
  // then retry the push.
  std::shared_ptr<Job> handle = job;
  while (!impl_->queue.tryPush(handle)) impl_->runOne();
  jobsDone_.push_back(std::move(job));
  // One pool task per dispatched shard; each pops *some* shard (FIFO),
  // so tasks and shards pair off even when the producer helped.
  auto impl = impl_;
  impl_->pool->enqueue([impl] { impl->runOne(); });
}

void StreamingCompressor::append(std::span<const uint8_t> bytes) {
  CYP_CHECK(!finished_, "StreamingCompressor: append after finish");
  while (!bytes.empty()) {
    // Dispatch a full shard only once the NEXT byte arrives: an input
    // of exactly kShardBytes must stay single-block, like compress().
    if (pending_.size() == kShardBytes) dispatchPending();
    const size_t room = kShardBytes - pending_.size();
    const size_t n = std::min(room, bytes.size());
    pending_.insert(pending_.end(), bytes.begin(), bytes.begin() + n);
    bytes = bytes.subspan(n);
  }
}

StreamingCompressor::Totals StreamingCompressor::finish() {
  CYP_CHECK(!finished_, "StreamingCompressor: finish called twice");
  finished_ = true;
  Totals t;

  if (jobsDone_.empty()) {
    // Never exceeded one shard: the legacy single-block container,
    // byte-for-byte what compress() writes for small inputs.
    t.rawBytes = pending_.size();
    t.crc = crc32(pending_);
    ByteWriter header;
    header.raw(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(detail::kMagic), 4));
    header.uv(pending_.size());
    header.u32fixed(t.crc);
    if (!pending_.empty())
      header.raw(detail::compressBlock(pending_, impl_->mp));
    t.compressedBytes = header.size();
    out_->append(header.bytes());
    pending_.clear();
    return t;
  }

  // Framed container: the tail shard (1..kShardBytes bytes — dispatch
  // happens only when a byte beyond the boundary arrived, so it is
  // never empty) joins the fleet, then the totals are known.
  dispatchPending();
  t.crc = shardCrcs_[0];
  t.rawBytes = shardLens_[0];
  for (size_t i = 1; i < shardCrcs_.size(); ++i) {
    t.crc = crc32Combine(t.crc, shardCrcs_[i], shardLens_[i]);
    t.rawBytes += shardLens_[i];
  }

  ByteWriter header;
  header.raw(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(detail::kMagic), 4));
  header.uv(t.rawBytes);
  header.u32fixed(t.crc);
  header.u8(detail::kBlockFramed);
  header.uv(jobsDone_.size());
  out_->append(header.bytes());
  t.compressedBytes = header.size();

  // In-order drain: wait for shard i (helping: drain own queue first,
  // then unrelated pool work, then a short timed wait — the pool's
  // helping discipline), stream it out, free it. I/O on shard i
  // overlaps compression of shards > i.
  for (size_t i = 0; i < jobsDone_.size(); ++i) {
    Job& job = *jobsDone_[i];
    while (!job.done.load(std::memory_order_acquire)) {
      if (impl_->runOne()) continue;
      if (impl_->pool != nullptr && impl_->pool->tryRunOne()) continue;
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return job.done.load(std::memory_order_acquire);
      });
    }
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      if (impl_->error) {
        impl_->queue.close();
        std::rethrow_exception(impl_->error);
      }
    }
    ByteWriter prefix;
    prefix.uv(job.block.size());
    out_->append(prefix.bytes());
    out_->append(job.block);
    t.compressedBytes += prefix.size() + job.block.size();
    jobsDone_[i].reset();
  }
  impl_->queue.close();
  return t;
}

}  // namespace cypress::flate
