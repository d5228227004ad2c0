#include "index/prefix_index.h"

#include <algorithm>
#include <cmath>

#include "index/kernels.h"

namespace sssj {

template <typename Policy>
void PrefixIndex<Policy>::Build(const Stream& window,
                                const MaxVector& global_max) {
  if constexpr (Policy::kAp) m_ = global_max;
  self_.Clear();
  self_.offset.reserve(window.size() + 1);
  for (const StreamItem& x : window) {
    self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
    AddInternal(x);
  }
  self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
  ++stats_.index_rebuilds;
}

template <typename Policy>
void PrefixIndex<Policy>::SelfQuery(const Stream& window, size_t pos,
                                    BatchQueryScratch* scratch,
                                    std::vector<ResultPair>* pairs) const {
  const size_t at = self_.offset[pos];
  QueryInternal(window[pos], self_.limit.data() + at,
                Policy::kAp ? self_.mhat.data() + at : nullptr, scratch,
                pairs);
}

template <typename Policy>
void PrefixIndex<Policy>::Query(const StreamItem& x,
                                BatchQueryScratch* scratch,
                                std::vector<ResultPair>* pairs) const {
  QueryInternal(x, nullptr, nullptr, scratch, pairs);
}

template <typename Policy>
void PrefixIndex<Policy>::Clear() {
  lists_.clear();
  residuals_.Clear();
  m_.Clear();
  mhat_.Clear();
  self_.Clear();
}

template <typename Policy>
size_t PrefixIndex<Policy>::IndexedEntries() const {
  size_t n = 0;
  for (const auto& [dim, list] : lists_) n += list.size();
  return n;
}

template <typename Policy>
size_t PrefixIndex<Policy>::MemoryBytes() const {
  size_t bytes = residuals_.MemoryBytes() + self_.MemoryBytes();
  for (const auto& [dim, list] : lists_) {
    bytes += sizeof(DimId) + list.capacity_bytes();
  }
  bytes += (m_.size() + mhat_.size()) * (sizeof(DimId) + sizeof(double));
  return bytes;
}

// CandGen (Algorithm 3) + CandVer (Algorithm 4), no time decay. Reads only
// immutable index state (lists_, residuals_, mhat_, self_); every mutable
// piece lives in *scratch, so concurrent calls with distinct scratches are
// safe (the MB window fan-out relies on this).
template <typename Policy>
void PrefixIndex<Policy>::QueryInternal(const StreamItem& x,
                                        const uint32_t* limits,
                                        const double* mhat_at,
                                        BatchQueryScratch* scratch,
                                        std::vector<ResultPair>* pairs) const {
  const SparseVector& v = x.vec;
  if (v.empty()) return;
  CandidateMap& cands = scratch->cands;
  std::vector<double>& prefix_norms = scratch->prefix_norms;
  RunStats& stats = scratch->stats;
  cands.Reset();

  // Prefix magnitudes ||x'_j||: norm of coordinates strictly before
  // position i.
  const size_t n = v.nnz();
  prefix_norms.assign(n, 0.0);
  {
    double sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      prefix_norms[i] = std::sqrt(sq);
      sq += v.coord(i).value * v.coord(i).value;
    }
  }

  // sz1 = θ / vm_x: minimum "weight capacity" |y|·vm_y of a viable y.
  const double sz1 = Policy::kAp ? theta_ / v.max_value() : 0.0;
  // m̂ at coordinate i: the recorded prefix value for a self-query, the
  // whole index's otherwise. rs1 sums in coordinate order either way,
  // exactly as MaxVector::Dot does.
  const auto mhat = [&](size_t i) {
    return mhat_at != nullptr ? mhat_at[i] : mhat_.Get(v.coord(i).dim);
  };
  double rs1 = 0.0;
  if constexpr (Policy::kAp) {
    for (size_t i = 0; i < n; ++i) rs1 += v.coord(i).value * mhat(i);
  }
  double rst = v.norm() * v.norm();

  for (size_t i = n; i-- > 0;) {  // reverse coordinate order
    const Coord& c = v.coord(i);
    const double rs2 = std::sqrt(std::max(rst, 0.0));
    auto it = lists_.find(c.dim);
    if (it != lists_.end()) {
      double remscore = rs2;
      if constexpr (Policy::kAp) {
        remscore = Policy::kL2 ? std::min(rs1, rs2) : rs1;
      }
      const bool admit_more = BoundAtLeast(remscore, theta_);
      const BatchPostingList& list = it->second;
      const size_t len = limits != nullptr ? limits[i] : list.size();
      const VectorId* ids = list.id();
      const double* vals = list.value();
      const double* pns = list.prefix_norm();
      const Timestamp* tss = list.ts();
      // SIMD path: batch the per-entry products over the whole column
      // (bit-identical to the scalar multiplies). Entries the AP size
      // filter later skips get a product they never read — the usual
      // compute-for-bandwidth trade — and the scalar default avoids it.
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
          // Size filter: |y|·vm_y ≥ sz1 is necessary for dot(x,y) ≥ θ.
          const ResidualRecord* rec = residuals_.Find(ids[k]);
          if (rec == nullptr || !BoundAtLeast(rec->nnz * rec->vm, sz1)) {
            continue;
          }
        }
        CandidateMap::Slot* slot = cands.FindOrCreate(ids[k]);
        if (slot->score < 0.0) continue;  // l2-pruned earlier: final
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

  // CandVer.
  cands.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats.verify_calls;
    const ResidualRecord* rec = residuals_.Find(id);
    if (rec == nullptr) return;  // defensive; every indexed y has a record
    const double ps1 = score + rec->q;
    if (!BoundAtLeast(ps1, theta_)) return;
    if constexpr (Policy::kAp) {
      const SparseVector& yp = rec->prefix;
      const double ds1 =
          score + std::min(v.max_value() * yp.sum(), yp.max_value() * v.sum());
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

// IndConstr (Algorithm 2).
template <typename Policy>
void PrefixIndex<Policy>::AddInternal(const StreamItem& x) {
  const SparseVector& v = x.vec;
  ++stats_.vectors_processed;
  if (v.empty()) return;

  double b1 = 0.0;
  double bt = 0.0;
  bool first_indexed = true;
  double running_sq = 0.0;  // for ||x'_j|| stored in posting entries

  // m̂ must dominate *every* coordinate of every vector in the index —
  // including un-indexed residual prefixes — because the rs1 admission
  // bound in CandGen covers residual contributions in the scanned dims
  // (§3: "m̂ refers to the vector m restricted to the dataset that is
  // already indexed", i.e. restricted by vector, not by coordinate).
  if constexpr (Policy::kAp) {
    for (const Coord& c : v) self_.mhat.push_back(mhat_.Get(c.dim));
    mhat_.UpdateFrom(v, nullptr);
  }

  for (size_t i = 0; i < v.nnz(); ++i) {
    const Coord& c = v.coord(i);
    const double pn = std::sqrt(running_sq);  // ||x'_j|| before this coord
    double pscore;  // bound BEFORE adding coord i (Algorithm 2 line 9)
    if constexpr (Policy::kAp && Policy::kL2) {
      pscore = std::min(b1, std::sqrt(bt));
    } else if constexpr (Policy::kAp) {
      pscore = b1;
    } else {
      pscore = std::sqrt(bt);
    }

    if constexpr (Policy::kAp) {
      // The paper (Algorithm 2 line 10) caps m_j at vm_x, inheriting
      // Bayardo's bound. That cap is only sound when vectors are processed
      // in decreasing max-weight order — false for time-ordered streams
      // and for cross-window MB queries — and can cause false negatives
      // (see DESIGN.md deviation 6 and the VmCapCounterexample test). We
      // therefore use the uncapped, unconditionally safe form.
      b1 += c.value * m_.Get(c.dim);
    }
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
      BatchPostingList& list = lists_[c.dim];
      self_.limit.push_back(static_cast<uint32_t>(list.size()));
      list.Append(x.id, c.value, pn, x.ts);
      ++stats_.entries_indexed;
    } else {
      auto it = lists_.find(c.dim);
      self_.limit.push_back(
          it == lists_.end() ? 0 : static_cast<uint32_t>(it->second.size()));
    }
  }
  // With a valid global max vector, min{b1, b2} reaches ||x|| = 1 ≥ θ by
  // the last coordinate, so every vector is indexed at least once. If the
  // caller violated the MaxVector precondition this does not hold, and
  // recall is undefined (documented in batch_index.h).
}

template class PrefixIndex<ApPolicy>;
template class PrefixIndex<L2apPolicy>;
template class PrefixIndex<L2Policy>;

}  // namespace sssj
