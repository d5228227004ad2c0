// Reference batch indexes for the equivalence pins: the map-based
// storage the production batch indexes (index/prefix_index.h) used
// before they moved to the window-position CSR layout. Posting lists are
// a std::unordered_map<DimId, MapPostingList> of four growing columns
// keyed by VectorId, residuals live in a ResidualStore, m̂ in a
// MaxVector, and candidates accumulate in a hashed CandidateMap. The
// scan and verification loops are the pre-CSR code verbatim; the only
// changes are that Build() starts from an empty index (the MiniBatch
// framework now rebuilds one index per window) and that the candidate map
// is a member, so a reference index must only be probed from one thread.
#ifndef SSSJ_TESTS_MAP_BATCH_REFERENCE_H_
#define SSSJ_TESTS_MAP_BATCH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "index/batch_index.h"
#include "index/candidate_map.h"
#include "index/kernels.h"
#include "index/max_vector.h"
#include "index/prefix_index.h"
#include "index/residual_store.h"

namespace sssj::map_reference {

// Append-only SoA posting list keyed by VectorId.
class MapPostingList {
 public:
  size_t size() const { return id_.size(); }

  void Append(VectorId id, double value, double prefix_norm, Timestamp ts) {
    id_.push_back(id);
    value_.push_back(value);
    prefix_norm_.push_back(prefix_norm);
    ts_.push_back(ts);
  }

  const VectorId* id() const { return id_.data(); }
  const double* value() const { return value_.data(); }
  const double* prefix_norm() const { return prefix_norm_.data(); }
  const Timestamp* ts() const { return ts_.data(); }

 private:
  std::vector<VectorId> id_;
  std::vector<double> value_;
  std::vector<double> prefix_norm_;
  std::vector<Timestamp> ts_;
};

// Per-item self-query records of the map layout: the list length and
// m̂ before the item, per coordinate.
struct MapSelfRecords {
  std::vector<uint32_t> offset;
  std::vector<uint32_t> limit;
  std::vector<double> mhat;
};

// INV, map-based.
class MapInvIndex : public BatchIndex {
 public:
  explicit MapInvIndex(double theta, bool use_simd = false)
      : theta_(theta), use_simd_(use_simd) {}

  void Build(const Stream& window, const MaxVector& /*unused*/) override {
    Clear();
    self_.offset.reserve(window.size() + 1);
    for (const StreamItem& x : window) {
      self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
      AddInternal(x);
    }
    self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
    ++stats_.index_rebuilds;
  }
  bool UsesGlobalMax() const override { return false; }
  void SelfQuery(const Stream& window, size_t pos, BatchQueryScratch* scratch,
                 std::vector<ResultPair>* pairs) const override {
    QueryInternal(window[pos], self_.limit.data() + self_.offset[pos],
                  scratch, pairs);
  }
  using BatchIndex::Query;
  void Query(const StreamItem& x, BatchQueryScratch* scratch,
             std::vector<ResultPair>* pairs) const override {
    QueryInternal(x, nullptr, scratch, pairs);
  }
  void Clear() override {
    lists_.clear();
    self_ = MapSelfRecords{};
  }
  const char* name() const override { return "MapINV"; }
  size_t MemoryBytes() const override { return 0; }

 private:
  void QueryInternal(const StreamItem& x, const uint32_t* limits,
                     BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const {
    CandidateMap& cands = cands_;
    RunStats& stats = scratch->stats;
    cands.Reset();
    for (size_t i = 0; i < x.vec.nnz(); ++i) {
      const Coord& c = x.vec.coord(i);
      auto it = lists_.find(c.dim);
      if (it == lists_.end()) continue;
      const MapPostingList& list = it->second;
      const size_t len = limits != nullptr ? limits[i] : list.size();
      const VectorId* ids = list.id();
      const double* vals = list.value();
      const Timestamp* tss = list.ts();
      const double* contrib = nullptr;
      if (use_simd_ && len >= kernels::kMinSimdRun) {
        if (scratch->contrib.size() < len) scratch->contrib.resize(len);
        kernels::ProductColumn(vals, len, c.value, scratch->contrib.data());
        contrib = scratch->contrib.data();
      }
      for (size_t k = 0; k < len; ++k) {
        ++stats.entries_traversed;
        CandidateMap::Slot* slot = cands.FindOrCreate(ids[k]);
        if (slot->score == 0.0) {
          slot->ts = tss[k];
          cands.NoteAdmitted();
          ++stats.candidates_generated;
        }
        slot->score += contrib != nullptr ? contrib[k] : c.value * vals[k];
      }
    }
    cands.ForEachLive([&](VectorId id, double score, Timestamp ts) {
      ++stats.verify_calls;
      if (score >= theta_) {
        ResultPair p;
        p.a = id;
        p.b = x.id;
        p.ta = ts;
        p.tb = x.ts;
        p.dot = score;
        p.sim = score;
        pairs->push_back(p);
        ++stats.pairs_emitted;
      }
    });
  }

  void AddInternal(const StreamItem& x) {
    for (const Coord& c : x.vec) {
      MapPostingList& list = lists_[c.dim];
      self_.limit.push_back(static_cast<uint32_t>(list.size()));
      list.Append(x.id, c.value, 0.0, x.ts);
      ++stats_.entries_indexed;
    }
    ++stats_.vectors_processed;
  }

  double theta_;
  bool use_simd_;
  std::unordered_map<DimId, MapPostingList> lists_;
  MapSelfRecords self_;
  mutable CandidateMap cands_;
};

// AP / L2AP / L2, map-based.
template <typename Policy>
class MapPrefixIndex : public BatchIndex {
 public:
  explicit MapPrefixIndex(double theta, bool use_simd = false)
      : theta_(theta), use_simd_(use_simd) {}

  void Build(const Stream& window, const MaxVector& global_max) override {
    Clear();
    if constexpr (Policy::kAp) m_ = global_max;
    self_.offset.reserve(window.size() + 1);
    for (const StreamItem& x : window) {
      self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
      AddInternal(x);
    }
    self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
    ++stats_.index_rebuilds;
  }
  bool UsesGlobalMax() const override { return Policy::kAp; }
  void SelfQuery(const Stream& window, size_t pos, BatchQueryScratch* scratch,
                 std::vector<ResultPair>* pairs) const override {
    const size_t at = self_.offset[pos];
    QueryInternal(window[pos], self_.limit.data() + at,
                  Policy::kAp ? self_.mhat.data() + at : nullptr, scratch,
                  pairs);
  }
  using BatchIndex::Query;
  void Query(const StreamItem& x, BatchQueryScratch* scratch,
             std::vector<ResultPair>* pairs) const override {
    QueryInternal(x, nullptr, nullptr, scratch, pairs);
  }
  void Clear() override {
    lists_.clear();
    residuals_.Clear();
    m_.Clear();
    mhat_.Clear();
    self_ = MapSelfRecords{};
  }
  const char* name() const override { return Policy::kName; }
  size_t MemoryBytes() const override { return 0; }

  size_t IndexedEntries() const {
    size_t n = 0;
    for (const auto& [dim, list] : lists_) n += list.size();
    return n;
  }

 private:
  void QueryInternal(const StreamItem& x, const uint32_t* limits,
                     const double* mhat_at, BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const {
    const SparseVector& v = x.vec;
    if (v.empty()) return;
    CandidateMap& cands = cands_;
    std::vector<double>& prefix_norms = scratch->prefix_norms;
    RunStats& stats = scratch->stats;
    cands.Reset();

    const size_t n = v.nnz();
    prefix_norms.assign(n, 0.0);
    {
      double sq = 0.0;
      for (size_t i = 0; i < n; ++i) {
        prefix_norms[i] = std::sqrt(sq);
        sq += v.coord(i).value * v.coord(i).value;
      }
    }

    const double sz1 = Policy::kAp ? theta_ / v.max_value() : 0.0;
    const auto mhat = [&](size_t i) {
      return mhat_at != nullptr ? mhat_at[i] : mhat_.Get(v.coord(i).dim);
    };
    double rs1 = 0.0;
    if constexpr (Policy::kAp) {
      for (size_t i = 0; i < n; ++i) rs1 += v.coord(i).value * mhat(i);
    }
    double rst = v.norm() * v.norm();

    for (size_t i = n; i-- > 0;) {
      const Coord& c = v.coord(i);
      const double rs2 = std::sqrt(std::max(rst, 0.0));
      auto it = lists_.find(c.dim);
      if (it != lists_.end()) {
        double remscore = rs2;
        if constexpr (Policy::kAp) {
          remscore = Policy::kL2 ? std::min(rs1, rs2) : rs1;
        }
        const bool admit_more = BoundAtLeast(remscore, theta_);
        const MapPostingList& list = it->second;
        const size_t len = limits != nullptr ? limits[i] : list.size();
        const VectorId* ids = list.id();
        const double* vals = list.value();
        const double* pns = list.prefix_norm();
        const Timestamp* tss = list.ts();
        const double* contrib = nullptr;
        const double* pnprod = nullptr;
        if (use_simd_ && len >= kernels::kMinSimdRun) {
          if (scratch->contrib.size() < len) scratch->contrib.resize(len);
          kernels::ProductColumn(vals, len, c.value, scratch->contrib.data());
          contrib = scratch->contrib.data();
          if constexpr (Policy::kL2) {
            if (scratch->pnprod.size() < len) scratch->pnprod.resize(len);
            kernels::ProductColumn(pns, len, prefix_norms[i],
                                   scratch->pnprod.data());
            pnprod = scratch->pnprod.data();
          }
        }
        for (size_t k = 0; k < len; ++k) {
          ++stats.entries_traversed;
          if constexpr (Policy::kAp) {
            const ResidualRecord* rec = residuals_.Find(ids[k]);
            if (rec == nullptr || !BoundAtLeast(rec->nnz * rec->vm, sz1)) {
              continue;
            }
          }
          CandidateMap::Slot* slot = cands.FindOrCreate(ids[k]);
          if (slot->score < 0.0) continue;
          if (slot->score == 0.0) {
            if (!admit_more) continue;
            slot->ts = tss[k];
            cands.NoteAdmitted();
            ++stats.candidates_generated;
          }
          slot->score += contrib != nullptr ? contrib[k] : c.value * vals[k];
          if constexpr (Policy::kL2) {
            const double l2bound =
                slot->score +
                (pnprod != nullptr ? pnprod[k] : prefix_norms[i] * pns[k]);
            if (!BoundAtLeast(l2bound, theta_)) {
              slot->score = CandidateMap::kPruned;
              ++stats.l2_prunes;
            }
          }
        }
      }
      if constexpr (Policy::kAp) rs1 -= c.value * mhat(i);
      rst -= c.value * c.value;
    }

    cands.ForEachLive([&](VectorId id, double score, Timestamp ts) {
      ++stats.verify_calls;
      const ResidualRecord* rec = residuals_.Find(id);
      if (rec == nullptr) return;
      const double ps1 = score + rec->q;
      if (!BoundAtLeast(ps1, theta_)) return;
      if constexpr (Policy::kAp) {
        const SparseVector& yp = rec->prefix;
        const double ds1 =
            score +
            std::min(v.max_value() * yp.sum(), yp.max_value() * v.sum());
        if (!BoundAtLeast(ds1, theta_)) return;
        const double sz2 =
            score + static_cast<double>(std::min(v.nnz(), yp.nnz())) *
                        v.max_value() * yp.max_value();
        if (!BoundAtLeast(sz2, theta_)) return;
      }
      ++stats.full_dots;
      const double s = score + kernels::SparseDot(v, rec->prefix, use_simd_);
      if (s >= theta_) {
        ResultPair p;
        p.a = id;
        p.b = x.id;
        p.ta = ts;
        p.tb = x.ts;
        p.dot = s;
        p.sim = s;
        pairs->push_back(p);
        ++stats.pairs_emitted;
      }
    });
  }

  void AddInternal(const StreamItem& x) {
    const SparseVector& v = x.vec;
    ++stats_.vectors_processed;
    if (v.empty()) return;

    double b1 = 0.0;
    double bt = 0.0;
    bool first_indexed = true;
    double running_sq = 0.0;

    if constexpr (Policy::kAp) {
      for (const Coord& c : v) self_.mhat.push_back(mhat_.Get(c.dim));
      mhat_.UpdateFrom(v, nullptr);
    }

    for (size_t i = 0; i < v.nnz(); ++i) {
      const Coord& c = v.coord(i);
      const double pn = std::sqrt(running_sq);
      double pscore;
      if constexpr (Policy::kAp && Policy::kL2) {
        pscore = std::min(b1, std::sqrt(bt));
      } else if constexpr (Policy::kAp) {
        pscore = b1;
      } else {
        pscore = std::sqrt(bt);
      }
      if constexpr (Policy::kAp) b1 += c.value * m_.Get(c.dim);
      bt += c.value * c.value;
      running_sq = bt;

      double bound;
      if constexpr (Policy::kAp && Policy::kL2) {
        bound = std::min(b1, std::sqrt(bt));
      } else if constexpr (Policy::kAp) {
        bound = b1;
      } else {
        bound = std::sqrt(bt);
      }

      if (BoundAtLeast(bound, theta_)) {
        if (first_indexed) {
          ResidualRecord rec;
          rec.prefix = v.Prefix(i);
          rec.q = pscore;
          rec.ts = x.ts;
          rec.vm = v.max_value();
          rec.sum = v.sum();
          rec.nnz = static_cast<uint32_t>(v.nnz());
          residuals_.Insert(x.id, std::move(rec));
          first_indexed = false;
        }
        MapPostingList& list = lists_[c.dim];
        self_.limit.push_back(static_cast<uint32_t>(list.size()));
        list.Append(x.id, c.value, pn, x.ts);
        ++stats_.entries_indexed;
      } else {
        auto it = lists_.find(c.dim);
        self_.limit.push_back(
            it == lists_.end() ? 0 : static_cast<uint32_t>(it->second.size()));
      }
    }
  }

  double theta_;
  bool use_simd_ = false;
  std::unordered_map<DimId, MapPostingList> lists_;
  ResidualStore residuals_;
  MaxVector m_;
  MaxVector mhat_;
  MapSelfRecords self_;
  mutable CandidateMap cands_;
};

}  // namespace sssj::map_reference

#endif  // SSSJ_TESTS_MAP_BATCH_REFERENCE_H_
