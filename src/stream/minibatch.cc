#include "stream/minibatch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace sssj {

MiniBatchJoin::MiniBatchJoin(const DecayParams& params, IndexFactory factory,
                             double window_factor, size_t num_threads)
    : params_(params),
      factory_(std::move(factory)),
      window_len_(params.tau * std::max(window_factor, 1.0)),
      own_pool_(num_threads),
      pool_(own_pool_.num_threads() > 1 ? &own_pool_ : nullptr) {}

MiniBatchJoin::MiniBatchJoin(const DecayParams& params, IndexFactory factory,
                             double window_factor, LazyThreadPool* pool)
    : params_(params),
      factory_(std::move(factory)),
      window_len_(params.tau * std::max(window_factor, 1.0)),
      own_pool_(1),
      pool_(pool != nullptr && pool->num_threads() > 1 ? pool : nullptr) {}

namespace {
// The probe state of one pool thread, shared by every join whose close
// the thread works on: a thread runs one task at a time and no user code
// runs inside a task, so a service's pool keeps one scratch per thread
// however many sessions it serves.
struct PoolThreadScratch {
  BatchQueryScratch scratch;
  std::vector<ResultPair> raw;
};

PoolThreadScratch& ThisThreadScratch() {
  thread_local PoolThreadScratch scratch;
  return scratch;
}

// End of the window anchored at `start`. For the degenerate τ = 0 (θ = 1
// with λ > 0: only simultaneous pairs can qualify) the window is the
// smallest half-open interval containing `start`, so equal timestamps
// share a window and any later timestamp closes it.
Timestamp WindowEndFor(Timestamp start, double tau) {
  if (tau > 0.0) return start + tau;  // +inf tau → window never closes
  return std::nextafter(start, std::numeric_limits<Timestamp>::infinity());
}
}  // namespace

bool MiniBatchJoin::Push(const StreamItem& x, ResultSink* sink) {
  return PushItem(x, sink);
}

bool MiniBatchJoin::Push(StreamItem&& x, ResultSink* sink) {
  return PushItem(std::move(x), sink);
}

template <typename Item>
bool MiniBatchJoin::PushItem(Item&& x, ResultSink* sink) {
  if (started_ && x.ts < last_ts_) return false;
  if (!started_) {
    // A fresh run begins (first ever Push, or first Push after a Flush):
    // counters restart so a reused join never double-counts.
    started_ = true;
    stats_ = RunStats{};
    window_end_ = WindowEndFor(x.ts, window_len_);
  }
  last_ts_ = x.ts;
  if (x.ts >= window_end_) {
    // x starts a new window. O(1) advance, even across long silent gaps:
    CloseWindow(sink);
    if (window_len_ > 0.0 && x.ts < window_end_ + window_len_) {
      // x lands in the window adjacent to the one just closed — the only
      // case where pairs may span the boundary.
      window_end_ += window_len_;
    } else {
      // The gap exceeds a full window: nothing in the buffered window can
      // pair with x, so flush it too and re-anchor at x.
      CloseWindow(sink);
      window_end_ = WindowEndFor(x.ts, window_len_);
    }
  }
  cur_bytes_ += ItemBytes(x);
  cur_.push_back(std::forward<Item>(x));
  ++stats_.vectors_processed;
  return true;
}

void MiniBatchJoin::Flush(ResultSink* sink) {
  // First close indexes W_{k−1} and queries it with W_k; the second close
  // indexes the final window (its intra-window pairs).
  CloseWindow(sink);
  CloseWindow(sink);
  started_ = false;
  window_end_ = 0.0;
  last_ts_ = 0.0;
}

void MiniBatchJoin::CloseWindow(ResultSink* sink) {
  if (prev_.empty() && cur_.empty()) return;

  if (index_ == nullptr) index_ = factory_();
  BatchIndex& index = *index_;
  // Global max vector over both windows (§6.1): makes AP prefix filtering
  // sound for queries coming from the current window. Only the AP-family
  // bounds read it.
  MaxVector m;
  if (index.UsesGlobalMax()) {
    for (const StreamItem& item : prev_) m.UpdateFrom(item.vec, nullptr);
    for (const StreamItem& item : cur_) m.UpdateFrom(item.vec, nullptr);
  }
  index.Build(prev_, m);
  index_bytes_ = index.MemoryBytes();

  // Every probe reads only the now-immutable index, so the self-queries of
  // W_{k−1} and the cross-queries of W_k fan out together when it pays;
  // either path emits the exact same pair sequence.
  const uint64_t probes = prev_.size() + cur_.size();
  if (pool_ != nullptr &&
      index.stats().entries_indexed * probes >= kMinFanOutWork) {
    CloseParallel(index, &pool_->Get(), sink);
  } else {
    CloseSequential(index, sink);
  }

  // Fold this window's index statistics into the aggregate and restart
  // the index's own. A batch index only grows during a window, so its
  // entry count at close time is its peak; the aggregate keeps the max
  // across windows.
  RunStats idx_stats = index.stats();
  index.stats() = RunStats{};
  idx_stats.vectors_processed = 0;  // already counted in Push
  idx_stats.peak_index_entries = idx_stats.entries_indexed;
  stats_ += idx_stats;

  prev_ = std::move(cur_);
  prev_bytes_ = cur_bytes_;
  cur_.clear();
  cur_bytes_ = 0;
}

void MiniBatchJoin::Probe(const BatchIndex& index, size_t i,
                          BatchQueryScratch* scratch,
                          std::vector<ResultPair>* raw) const {
  raw->clear();
  if (i < prev_.size()) {
    index.SelfQuery(prev_, i, scratch, raw);
  } else {
    index.Query(cur_[i - prev_.size()], scratch, raw);
  }
}

void MiniBatchJoin::CloseSequential(const BatchIndex& index,
                                    ResultSink* sink) {
  scratch_.stats = RunStats{};
  const size_t n = prev_.size() + cur_.size();
  for (size_t i = 0; i < n; ++i) {
    Probe(index, i, &scratch_, &raw_);
    for (const ResultPair& r : raw_) {
      ResultPair p;
      if (ApplyDecay(r, &p)) {
        sink->Emit(p);
        ++stats_.pairs_emitted;
      }
    }
  }
  FoldProbeStats(scratch_.stats);
}

void MiniBatchJoin::CloseParallel(const BatchIndex& index, ThreadPool* pool,
                                  ResultSink* sink) {
  // Fine-grained contiguous ranges: later self-queries see longer list
  // prefixes than earlier ones, so equal shares per thread would leave
  // threads idle; claiming small ranges one at a time balances the load.
  constexpr size_t kTasksPerThread = 8;
  struct Task {
    std::vector<ResultPair> ready;  // decay-filtered, in probe order
    RunStats stats;
  };
  const size_t n = prev_.size() + cur_.size();
  std::vector<Task> tasks(std::min(n, pool->num_threads() * kTasksPerThread));
  ++fanned_out_closes_;

  pool->ParallelFor(tasks.size(), [&](size_t t) {
    PoolThreadScratch& thread = ThisThreadScratch();
    thread.scratch.stats = RunStats{};
    Task& task = tasks[t];
    const size_t lo = t * n / tasks.size();
    const size_t hi = (t + 1) * n / tasks.size();
    for (size_t i = lo; i < hi; ++i) {
      Probe(index, i, &thread.scratch, &thread.raw);
      // ApplyDecay, off the coordinator's critical path.
      for (const ResultPair& r : thread.raw) {
        ResultPair p;
        if (ApplyDecay(r, &p)) task.ready.push_back(p);
      }
    }
    task.stats = thread.scratch.stats;
  });

  // Ranges cover [0, n) in ascending order, so draining them in task
  // order reproduces the sequential emission exactly.
  for (const Task& task : tasks) {
    for (const ResultPair& p : task.ready) {
      sink->Emit(p);
      ++stats_.pairs_emitted;
    }
    FoldProbeStats(task.stats);
  }
}

void MiniBatchJoin::FoldProbeStats(RunStats probe_stats) {
  probe_stats.pairs_emitted = 0;  // raw pre-decay count
  stats_ += probe_stats;
}

bool MiniBatchJoin::ApplyDecay(const ResultPair& raw, ResultPair* out) const {
  const double sim = raw.dot * DecayFactor(params_.lambda, raw.ta, raw.tb);
  if (sim < params_.theta) return false;
  *out = raw;
  out->sim = sim;
  out->Canonicalize();
  return true;
}

}  // namespace sssj
