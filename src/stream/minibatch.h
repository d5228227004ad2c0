// MB-IDX — the MiniBatch framework (Algorithm 1, refined per §6.1).
//
// The stream is chopped into consecutive windows of length τ. The index
// over window W_{k−1} is built lazily, at the *end* of window W_k, so that
// the AP-family prefix-filter invariant can be established with a max
// vector covering both the indexed data (W_{k−1}) and all its future
// queries (W_k) — this is the two-window refinement of §6.1. At each
// window boundary:
//   1. the index is rebuilt over W_{k−1}, reporting every intra-window
//      pair of W_{k−1} (IndConstr),
//   2. every vector of W_k queries that index, reporting cross-window
//      pairs (CandGen + CandVer),
//   3. every reported pair passes the ApplyDecay filter
//      (dot · e^{−λΔt} ≥ θ),
//   4. windows shift; the next close rebuilds the index from empty —
//      this is MB's big advantage on dense data: no incremental list
//      surgery. The join creates its index at the first close and keeps
//      it, so a rebuild reuses the arrays of earlier windows and steady
//      state allocates nothing and frees nothing.
//
// Completeness: any pair within the horizon τ lies either inside one
// window or spans two adjacent ones; both cases are covered. As the paper
// notes, MB reports pairs with a delay of up to 2τ and wastes work on
// candidate pairs with Δt ∈ (τ, 2τ] that ApplyDecay then rejects.
//
// Special case λ = 0 (τ = ∞): the window never closes and Flush() performs
// one classic batch apss over the whole stream.
//
// Window close as one fork/join: the index over W_{k−1} is built first
// (BatchIndex::Build, sequential) and is immutable from then on, so step
// 1's self-queries (item i of W_{k−1} against items 0..i−1, see
// index/batch_index.h) and step 2's cross-queries (every item of W_k
// against all of W_{k−1}) are independent probes. They form one task list
// — the self-queries in window order, then the cross-queries in arrival
// order — cut into contiguous ranges that the pool's threads claim one at
// a time. Each pool thread probes with one thread-local scratch, shared by
// every join it serves; each range fills its own buffer of decay-filtered
// pairs, and the buffers are emitted in range order. A probe's whole
// computation (candidate admission order, floating-point accumulation,
// pruning) depends only on the probe item and the immutable index, so the
// emitted pair sequence and every RunStats counter are bit-identical to
// the sequential close for ANY thread count. Closes too small for the
// fork/join to pay (see kMinFanOutWork) run sequentially on the calling
// thread.
#ifndef SSSJ_STREAM_MINIBATCH_H_
#define SSSJ_STREAM_MINIBATCH_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/join_core.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/batch_index.h"
#include "util/thread_pool.h"

namespace sssj {

class MiniBatchJoin final : public JoinCore {
 public:
  using IndexFactory = std::function<std::unique_ptr<BatchIndex>()>;

  // `window_factor` (≥ 1) sets the window length to window_factor·τ. The
  // paper fixes it at 1; larger windows are still complete (any window
  // ≥ τ makes in-horizon pairs intra- or adjacent-window) and trade fewer
  // index rebuilds against larger per-window indexes and more decay-
  // rejected candidates (MB tests pairs up to 2·window apart). Values < 1
  // would lose pairs and are clamped to 1.
  //
  // `num_threads` (including the calling thread) fans every large enough
  // window close out over a private pool, built at the first close that
  // fans out; 0 means all hardware threads, 1 keeps the fully sequential
  // path. Output is bit-identical for any value.
  MiniBatchJoin(const DecayParams& params, IndexFactory factory,
                double window_factor = 1.0, size_t num_threads = 1);

  // Same, but running window closes on a pool shared with other joins
  // (JoinService owns one per service, not one per engine). `pool` is
  // borrowed and must outlive the join; null, or a pool of one thread,
  // keeps the sequential path. Output is bit-identical to the own-pool
  // constructor for any pool size.
  MiniBatchJoin(const DecayParams& params, IndexFactory factory,
                double window_factor, LazyThreadPool* pool);

  // A window close fans out only when its work estimate reaches this
  // bound. The estimate is free once Build() has run: the posting entries
  // it indexed times the close's probes (|W_{k−1}| self-queries plus
  // |W_k| cross-queries); an empty W_{k−1} makes it 0. Measured per close
  // with 4 threads on a 4-hardware-thread x86-64 box, for L2 and INV at
  // θ ∈ {0.5, 0.7} over windows of 16–512 items of the RCV1-, Tweets-,
  // WebSpam- and Blogs-like profiles (96 cells): the 78 closes at or
  // above the bound ran 1.09–3.4x faster fanned out, the 18 below it
  // 0.39–1.13x (Tweets-like windows of ≤ 64 items lose up to 2.6x). Per
  // cell, the close time this rule picks is on geometric mean 0.7% above
  // the faster path's; a cutoff on the probe count alone is 7.6% above at
  // 128 probes (and fans out one losing cell) and 31% above at the former
  // 512.
  static constexpr uint64_t kMinFanOutWork = uint64_t{1} << 16;

  Framework framework() const override { return Framework::kMiniBatch; }

  // Feeds one arrival; emits any pairs that became reportable (i.e. when
  // `x` closes one or more windows). Returns false on a time-order
  // violation (the item is rejected, state unchanged). The rvalue overload
  // moves the item into the current window instead of copying it.
  bool Push(const StreamItem& x, ResultSink* sink) override;
  bool Push(StreamItem&& x, ResultSink* sink) override;

  // Closes all pending windows and reports the remaining pairs. The join
  // can be reused afterwards: windows, the stream clock AND the stats
  // counters start fresh on the next Push, so a reused join never
  // double-counts (stats() keeps the finished run's totals until then).
  void Flush(ResultSink* sink) override;

  // Statistics over all window indexes built in the current run (i.e.
  // since construction or the first Push after a Flush).
  const RunStats& stats() const override { return stats_; }
  const DecayParams& params() const { return params_; }

  // Resident bytes: the buffered windows W_{k−1} and W_k plus the
  // retained batch index, whose arrays keep the capacity of the largest
  // window indexed so far (it stays resident between closes and across
  // Flush). O(1): the window totals are kept by Push and the rotation in
  // CloseWindow, and the index's total is read once per close, after
  // Build (the only call that changes it).
  size_t MemoryBytes() const override {
    return prev_bytes_ + cur_bytes_ + index_bytes_;
  }
  // The retained batch index; null before the first window close (tests).
  const BatchIndex* index() const { return index_.get(); }

  // Window sizes, exposed for tests.
  size_t pending_current() const { return cur_.size(); }
  size_t pending_previous() const { return prev_.size(); }
  size_t num_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_threads();
  }
  // Window closes that fanned out over the pool, over the join's lifetime.
  size_t fanned_out_closes() const { return fanned_out_closes_; }

  // Stream-clock state, exposed so the engine can diagnose a time
  // regression precisely before delegating. `started()` is false again
  // after a Flush (the next Push begins a fresh run).
  Timestamp last_ts() const override { return last_ts_; }
  bool started() const override { return started_; }

  // Checkpoint-restore hook: re-arms the clock after a replay rebuilt the
  // windows. With items replayed the clock is already correct and this is
  // a re-assertion; for a started-but-empty snapshot (possible only in
  // adversarial inputs) the window anchor stays at its default and the
  // next Push's gap logic re-anchors it — completeness holds for any
  // window ≥ τ.
  void RestoreClock(Timestamp last_ts, bool started) override {
    last_ts_ = last_ts;
    started_ = started;
  }

  // A window boundary: the current window is empty, i.e. the last push
  // closed a window (or nothing was pushed yet).
  bool AtBoundary() const override { return cur_.empty(); }

  // The buffered windows W_{k−1} ∪ W_k — exactly the items whose pairs
  // (intra- and cross-window) have not been reported yet, in arrival
  // order.
  void CollectLiveItems(Stream* out) const override {
    out->insert(out->end(), prev_.begin(), prev_.end());
    out->insert(out->end(), cur_.begin(), cur_.end());
  }

 private:
  template <typename Item>
  bool PushItem(Item&& x, ResultSink* sink);
  void CloseWindow(ResultSink* sink);
  // Probe `i` of the close's task list: a self-query of prev_[i] for
  // i < |prev_|, else a cross-query of cur_[i − |prev_|]. Its raw pairs
  // replace *raw.
  void Probe(const BatchIndex& index, size_t i, BatchQueryScratch* scratch,
             std::vector<ResultPair>* raw) const;
  void CloseSequential(const BatchIndex& index, ResultSink* sink);
  void CloseParallel(const BatchIndex& index, ThreadPool* pool,
                     ResultSink* sink);
  // The ApplyDecay filter of Algorithm 1: both close paths share it so
  // the acceptance rule can never diverge.
  bool ApplyDecay(const ResultPair& raw, ResultPair* out) const;
  // Folds a probe scratch's counters into stats_ (pairs are counted after
  // decay, at emission).
  void FoldProbeStats(RunStats probe_stats);

  DecayParams params_;
  IndexFactory factory_;  // called once, at the first close
  std::unique_ptr<BatchIndex> index_;
  // The sequential close's probe state, kept like the index.
  BatchQueryScratch scratch_;
  std::vector<ResultPair> raw_;
  double window_len_;  // window_factor · τ
  Stream prev_;  // W_{k−1}: awaiting indexing
  Stream cur_;   // W_k: accumulating
  size_t index_bytes_ = 0;  // index_->MemoryBytes() after the last Build
  size_t prev_bytes_ = 0;  // Σ ItemBytes over prev_
  size_t cur_bytes_ = 0;   // Σ ItemBytes over cur_
  Timestamp window_end_ = 0.0;
  Timestamp last_ts_ = 0.0;
  bool started_ = false;
  RunStats stats_;
  LazyThreadPool own_pool_;  // backs pool_ unless one was injected
  LazyThreadPool* pool_;     // nullptr → sequential close
  size_t fanned_out_closes_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_STREAM_MINIBATCH_H_
