// STR-IDX — the Streaming framework (Algorithm 5). A thin, validating
// wrapper over a StreamIndex: each arrival is joined against the online
// index and then inserted into it; results are reported immediately (no
// reporting delay, unlike MB).
#ifndef SSSJ_STREAM_STREAMING_H_
#define SSSJ_STREAM_STREAMING_H_

#include <deque>
#include <memory>

#include "core/join_core.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/stream_index.h"

namespace sssj {

class StreamingJoin final : public JoinCore {
 public:
  // `retain_live` keeps a copy of every in-horizon item (ts within τ of
  // the newest arrival) in a side buffer, which is what portable
  // checkpoints and live scheme migration serialize (CollectLiveItems).
  // Off by default: engines without migration enabled never read it, and
  // it costs resident bytes (measured +1.8% at λ = 1e-2 and +14% at
  // λ = 1e-3 on the RCV1-like profile). With λ = 0 the horizon is
  // infinite and the buffer retains the whole stream — the same growth
  // the index itself has in that regime.
  StreamingJoin(const DecayParams& params, std::unique_ptr<StreamIndex> index,
                bool retain_live = false)
      : params_(params), index_(std::move(index)), retain_live_(retain_live) {}

  Framework framework() const override { return Framework::kStreaming; }

  // Feeds one arrival; pairs are emitted synchronously. Returns false on a
  // time-order violation (item rejected).
  bool Push(const StreamItem& x, ResultSink* sink) override {
    if (started_ && x.ts < last_ts_) return false;
    started_ = true;
    last_ts_ = x.ts;
    index_->ProcessArrival(x, sink);
    if (retain_live_) RetainItem(x);
    return true;
  }

  // STR has no buffered state to drain; provided for API symmetry with MB.
  void Flush(ResultSink* /*sink*/) override {}

  const RunStats& stats() const override { return index_->stats(); }
  const DecayParams& params() const { return params_; }
  const StreamIndex& index() const { return *index_; }
  StreamIndex* mutable_index() { return index_.get(); }

  size_t MemoryBytes() const override {
    return index_->MemoryBytes() + live_bytes_;
  }

  // Clock state, exposed for checkpoint/restore (engine.cc).
  Timestamp last_ts() const override { return last_ts_; }
  bool started() const override { return started_; }
  void RestoreClock(Timestamp last_ts, bool started) override {
    last_ts_ = last_ts;
    started_ = started;
  }

  // STR emits eagerly, so every push boundary is a reporting boundary.
  bool AtBoundary() const override { return true; }

  void CollectLiveItems(Stream* out) const override {
    out->insert(out->end(), live_.begin(), live_.end());
  }

  StreamingJoin* AsStreaming() override { return this; }
  const StreamingJoin* AsStreaming() const override { return this; }

 private:
  void RetainItem(const StreamItem& x) {
    live_.push_back(x);
    live_bytes_ += sizeof(StreamItem) + x.vec.nnz() * sizeof(Coord);
    // Prune strictly-out-of-horizon items only: at Δt == τ a dot of 1
    // still reaches θ exactly (sim = θ qualifies), so `>` not `>=`.
    while (!live_.empty() && x.ts - live_.front().ts > params_.tau) {
      live_bytes_ -=
          sizeof(StreamItem) + live_.front().vec.nnz() * sizeof(Coord);
      live_.pop_front();
    }
  }

  DecayParams params_;
  std::unique_ptr<StreamIndex> index_;
  bool retain_live_ = false;
  std::deque<StreamItem> live_;  // in-horizon items, arrival order
  size_t live_bytes_ = 0;
  Timestamp last_ts_ = 0.0;
  bool started_ = false;
};

}  // namespace sssj

#endif  // SSSJ_STREAM_STREAMING_H_
