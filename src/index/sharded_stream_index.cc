#include "index/sharded_stream_index.h"

namespace sssj {

ShardedStreamIndex::ShardedStreamIndex(const DecayParams& params,
                                       size_t num_threads,
                                       const L2IndexOptions& options,
                                       bool use_simd,
                                       const TieredStorageOptions& tiered)
    : ShardedStreamIndex(params, num_threads, nullptr, options, use_simd,
                         tiered) {}

ShardedStreamIndex::ShardedStreamIndex(const DecayParams& params,
                                       size_t num_threads,
                                       std::shared_ptr<ThreadPool> pool,
                                       const L2IndexOptions& options,
                                       bool use_simd,
                                       const TieredStorageOptions& tiered)
    : params_(params),
      options_(options),
      tiered_(tiered),
      shards_(num_threads < 1 ? 1 : num_threads),
      pool_(std::move(pool)) {
  if (pool_ == nullptr) {
    pool_ = std::make_shared<ThreadPool>(shards_.size());
  }
  for (Shard& shard : shards_) {
    RoleLock owner(shard.owner);  // construction: no workers exist yet
    shard.kernel.use_simd = use_simd;
  }
}

void ShardedStreamIndex::GeneratePhase(const StreamItem& x, Timestamp cutoff,
                                       size_t w, Shard& shard) {
  const size_t S = shards_.size();
  shard.phase_stats = L2PhaseStats{};
  shard.pairs.clear();
  shard.appended = 0;
  shard.pruned = 0;
  shard.cands.Reset();
  L2GenerateCandidates(
      x, params_, options_, prefix_norms_, cutoff,
      [&](DimId dim) -> PostingList* {
        auto& lists = shards_[dim % S].lists;
        auto it = lists.find(dim);
        return it == lists.end() ? nullptr : &it->second;
      },
      [&](VectorId id) { return id % S == w; },
      [](PostingList&, size_t) {},  // deferred: see phase 2
      &shard.kernel, &shard.cands, &shard.phase_stats);
}

void ShardedStreamIndex::VerifyAndConstructPhase(const StreamItem& x,
                                                 Timestamp cutoff,
                                                 const L2IndexSplit& split,
                                                 size_t w, Shard& shard) {
  const size_t S = shards_.size();
  const SparseVector& v = x.vec;
  // Bound here, in the annotated scope, so the emit lambda below touches
  // a plain reference instead of the owner-guarded field (lambda bodies
  // are analyzed without this function's REQUIRES).
  std::vector<ResultPair>& pairs = shard.pairs;
  L2VerifyCandidates(
      x, params_, options_, shard.cands, residuals_, &shard.kernel,
      &shard.phase_stats,
      [&pairs](const ResultPair& p) { pairs.push_back(p); });
  const size_t n = v.nnz();
  for (size_t i = 0; i < n; ++i) {
    const Coord& c = v.coord(i);
    if (c.dim % S != w) continue;
    auto it = shard.lists.find(c.dim);
    if (it != shard.lists.end()) {
      // Same truncation the sequential backward scan performs: drop the
      // time-sorted expired run at the front of every touched list,
      // located by binary search on the ts column. NoteScanned here —
      // not in the phase-1 lookup — because phase 1 reads lists across
      // shards and the classifier counter is not synchronized.
      PostingList& list = it->second;
      list.NoteScanned(stats_.vectors_processed);
      shard.pruned += list.TruncateFront(list.LowerBoundTs(cutoff));
    }
    if (i >= split.first_indexed) {
      PostingList& list = shard.lists[c.dim];
      list.Append(x.id, c.value, prefix_norms_[i], x.ts);
      list.MaybeFreeze(tiered_, stats_.vectors_processed);
      ++shard.appended;
    }
  }
}

void ShardedStreamIndex::ProcessArrival(const StreamItem& x,
                                        ResultSink* sink) {
  const SparseVector& v = x.vec;
  const Timestamp cutoff = x.ts - params_.tau;
  ++stats_.vectors_processed;
  residuals_.ExpireOlderThan(cutoff);
  if (v.empty()) return;

  L2ComputePrefixNorms(v, &prefix_norms_);
  const size_t S = shards_.size();

  // ---- Parallel phase 1: candidate generation ----
  // Lists are read-only here (expiry is deferred to phase 2, where each
  // worker owns the lists it truncates), so cross-shard lookups are safe.
  pool_->ParallelFor(S, [&](size_t w) {
    Shard& shard = shards_[w];
    RoleLock owner(shard.owner);
    GeneratePhase(x, cutoff, w, shard);
  });

  // ---- Parallel phase 2: verification + index construction ----
  // Verification reads the residual store (no writer is active);
  // construction touches only worker-owned lists. The coordinate split is
  // identical for all workers, so it is computed once up front.
  const L2IndexSplit split = L2ComputeIndexSplit(v, params_.theta);
  const size_t n = v.nnz();
  pool_->ParallelFor(S, [&](size_t w) {
    Shard& shard = shards_[w];
    RoleLock owner(shard.owner);
    VerifyAndConstructPhase(x, cutoff, split, w, shard);
  });

  // Residual direct index: single writer, after the workers are done.
  if (split.first_indexed < n) {
    residuals_.Insert(x.id, L2MakeResidualRecord(x, split));
  }

  // ---- Merge: deterministic emission and stats fold, in shard order ----
  // The ParallelFor barrier transferred every shard back to us; the
  // RoleLock per shard makes that hand-off explicit to the analysis.
  for (Shard& shard : shards_) {
    RoleLock owner(shard.owner);
    for (const ResultPair& p : shard.pairs) sink->Emit(p);
    shard.phase_stats.MergeInto(&stats_);
    NotePruned(shard.pruned);
  }
  // Append accounting last, mirroring the sequential index where pruning
  // happens during generation and NoteIndexed at the very end.
  size_t appended = 0;
  for (Shard& shard : shards_) {
    RoleLock owner(shard.owner);
    appended += shard.appended;
  }
  if (appended > 0) NoteIndexed(appended);
}

void ShardedStreamIndex::Clear() {
  for (Shard& shard : shards_) {
    RoleLock owner(shard.owner);  // no arrival in flight: sole owner
    shard.lists.clear();
    shard.pairs.clear();
    shard.appended = 0;
    shard.pruned = 0;
  }
  residuals_.Clear();
  live_entries_ = 0;
}

size_t ShardedStreamIndex::MemoryBytes() const {
  size_t bytes = residuals_.ApproxBytes();
  for (const Shard& shard : shards_) {
    bytes += PostingMapMemoryBytes(shard.lists);
  }
  return bytes;
}

}  // namespace sssj
