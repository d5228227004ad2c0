#include "index/prefix_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "index/kernels.h"

namespace sssj {

void BatchStorage::Reset() {
  dims.Clear();
  begin.clear();
  fill.clear();
  mhat.clear();
  post_pos.clear();
  post_value.clear();
  post_pn.clear();
  id.clear();
  ts.clear();
  q.clear();
  prefix_off.clear();
  prefix.clear();
  size_weight.clear();
  prefix_sum.clear();
  prefix_max.clear();
  self.Clear();
}

size_t BatchStorage::MemoryBytes() const {
  return dims.MemoryBytes() + self.MemoryBytes() +
         (begin.capacity() + fill.capacity() + post_pos.capacity() +
          prefix_off.capacity()) *
             sizeof(uint32_t) +
         (mhat.capacity() + post_value.capacity() + post_pn.capacity() +
          q.capacity() + size_weight.capacity() + prefix_sum.capacity() +
          prefix_max.capacity()) *
             sizeof(double) +
         id.capacity() * sizeof(VectorId) + ts.capacity() * sizeof(Timestamp) +
         prefix.capacity() * sizeof(Coord);
}

// IndConstr (Algorithm 2) over the whole window, as two passes. Pass 1
// walks the items in window order: it resolves every coordinate's dense
// dim, records the self-query limits (the dim's posting count so far)
// and m̂ before the item, splits the item at its first indexed coordinate
// and stores its residual. Pass 2 turns the counts into CSR offsets and
// fills the columns in window order, so every list holds its entries in
// the order the interleaved loop appended them.
template <typename Policy>
void PrefixIndex<Policy>::Build(const Stream& window,
                                const MaxVector& global_max) {
  assert(window.size() < UINT32_MAX);
  BatchStorage& s = s_;
  s.Reset();
  // Exact sizes for the arrays filled per item and per coordinate, so a
  // larger window grows them once, with no doubling slack.
  const size_t n = window.size();
  size_t coords = 0;
  for (const StreamItem& x : window) coords += x.vec.nnz();
  s.self.offset.reserve(n + 1);
  s.self.dim.reserve(coords);
  s.self.limit.reserve(coords);
  s.id.reserve(n);
  s.ts.reserve(n);
  if constexpr (Policy::kAp) {
    s.self.mhat.reserve(coords);
    s.size_weight.reserve(n);
    s.prefix_sum.reserve(n);
    s.prefix_max.reserve(n);
  }
  if constexpr (Policy::kPrefixFilter) {
    s.q.reserve(n);
    s.prefix_off.reserve(n + 1);
    s.prefix_off.push_back(0);
  }

  for (const StreamItem& x : window) {
    const SparseVector& v = x.vec;
    const size_t base = s.self.dim.size();
    s.self.offset.push_back(static_cast<uint32_t>(base));
    s.id.push_back(x.id);
    s.ts.push_back(x.ts);
    ++stats_.vectors_processed;

    for (const Coord& c : v) {
      const uint32_t d = s.dims.FindOrAdd(c.dim);
      if (d == s.fill.size()) {
        s.fill.push_back(0);
        if constexpr (Policy::kAp) s.mhat.push_back(0.0);
      }
      s.self.dim.push_back(d);
    }
    // m̂ must dominate *every* coordinate of every vector in the index —
    // including un-indexed residual prefixes — because the rs1 admission
    // bound in CandGen covers residual contributions in the scanned dims
    // (§3: "m̂ refers to the vector m restricted to the dataset that is
    // already indexed", i.e. restricted by vector, not by coordinate).
    if constexpr (Policy::kAp) {
      for (size_t i = 0; i < v.nnz(); ++i) {
        s.self.mhat.push_back(s.mhat[s.self.dim[base + i]]);
      }
      for (size_t i = 0; i < v.nnz(); ++i) {
        double& m = s.mhat[s.self.dim[base + i]];
        m = std::max(m, v.coord(i).value);
      }
    }

    // The split: coordinates [first, nnz) are indexed. The bound only
    // grows along the coordinates, so once a coordinate is indexed every
    // later one is too.
    size_t first = 0;
    if constexpr (Policy::kPrefixFilter) {
      first = v.nnz();
      double q = 0.0;
      double b1 = 0.0;
      double bt = 0.0;
      for (size_t i = 0; i < v.nnz(); ++i) {
        const Coord& c = v.coord(i);
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
          // Bayardo's bound. That cap is only sound when vectors are
          // processed in decreasing max-weight order — false for
          // time-ordered streams and for cross-window MB queries — and can
          // cause false negatives (see DESIGN.md deviation 6 and the
          // VmCapCounterexample test). We therefore use the uncapped,
          // unconditionally safe form.
          b1 += c.value * global_max.Get(c.dim);
        }
        bt += c.value * c.value;
        double bound;
        if constexpr (Policy::kAp && Policy::kL2) {
          bound = std::min(b1, std::sqrt(bt));
        } else if constexpr (Policy::kAp) {
          bound = b1;
        } else {
          bound = std::sqrt(bt);
        }
        if (BoundAtLeast(bound, theta_)) {
          first = i;
          q = pscore;
          break;
        }
      }
      // With a valid global max vector, min{b1, b2} reaches ||x|| = 1 ≥ θ
      // by the last coordinate, so every vector is indexed at least once.
      // A vector that never is (non-unit input, or a caller that violated
      // the MaxVector precondition) keeps its whole body as the prefix;
      // having no postings, it is never a candidate.
      s.q.push_back(q);
      s.prefix.insert(s.prefix.end(), v.begin(), v.begin() + first);
      s.prefix_off.push_back(static_cast<uint32_t>(s.prefix.size()));
      if constexpr (Policy::kAp) {
        // y'’s sum and max as SparseVector::Prefix computed them.
        double sum = 0.0;
        double max = 0.0;
        for (size_t i = 0; i < first; ++i) {
          max = std::max(max, v.coord(i).value);
          sum += v.coord(i).value;
        }
        s.size_weight.push_back(static_cast<double>(v.nnz()) *
                                v.max_value());
        s.prefix_sum.push_back(sum);
        s.prefix_max.push_back(max);
      }
    }

    for (size_t i = 0; i < v.nnz(); ++i) {
      uint32_t& count = s.fill[s.self.dim[base + i]];
      s.self.limit.push_back(count);
      if (i >= first) {
        ++count;
        ++stats_.entries_indexed;
      }
    }
  }
  s.self.offset.push_back(static_cast<uint32_t>(s.self.dim.size()));

  // Counts → CSR offsets; `fill` becomes each list's write cursor.
  const size_t num_dims = s.fill.size();
  s.begin.resize(num_dims + 1);
  s.begin[0] = 0;
  for (size_t d = 0; d < num_dims; ++d) {
    assert(uint64_t{s.begin[d]} + s.fill[d] < UINT32_MAX);
    s.begin[d + 1] = s.begin[d] + s.fill[d];
    s.fill[d] = s.begin[d];
  }
  const size_t entries = s.begin[num_dims];
  s.post_pos.resize(entries);
  s.post_value.resize(entries);
  if constexpr (Policy::kL2) s.post_pn.resize(entries);

  for (size_t p = 0; p < n; ++p) {
    const SparseVector& v = window[p].vec;
    const uint32_t* dims = s.self.dim.data() + s.self.offset[p];
    size_t first = 0;
    if constexpr (Policy::kPrefixFilter) {
      first = s.prefix_off[p + 1] - s.prefix_off[p];
    }
    double sq = 0.0;  // for ||x'_j||, the norm before coordinate j
    for (size_t i = 0; i < v.nnz(); ++i) {
      const Coord& c = v.coord(i);
      if (i >= first) {
        const uint32_t k = s.fill[dims[i]]++;
        s.post_pos[k] = static_cast<uint32_t>(p);
        s.post_value[k] = c.value;
        if constexpr (Policy::kL2) s.post_pn[k] = std::sqrt(sq);
      }
      if constexpr (Policy::kL2) sq += c.value * c.value;
    }
  }
  ++stats_.index_rebuilds;
}

template <typename Policy>
void PrefixIndex<Policy>::SelfQuery(const Stream& window, size_t pos,
                                    BatchQueryScratch* scratch,
                                    std::vector<ResultPair>* pairs) const {
  const size_t at = s_.self.offset[pos];
  QueryInternal(window[pos], s_.self.dim.data() + at,
                s_.self.limit.data() + at,
                Policy::kAp ? s_.self.mhat.data() + at : nullptr, scratch,
                pairs);
}

template <typename Policy>
void PrefixIndex<Policy>::Query(const StreamItem& x,
                                BatchQueryScratch* scratch,
                                std::vector<ResultPair>* pairs) const {
  QueryInternal(x, nullptr, nullptr, nullptr, scratch, pairs);
}

// CandGen (Algorithm 3) + CandVer (Algorithm 4), no time decay. Reads only
// the immutable storage; every mutable piece lives in *scratch, so
// concurrent calls with distinct scratches are safe (the MB window
// fan-out relies on this).
template <typename Policy>
void PrefixIndex<Policy>::QueryInternal(const StreamItem& x,
                                        const uint32_t* dims,
                                        const uint32_t* limits,
                                        const double* mhat_at,
                                        BatchQueryScratch* scratch,
                                        std::vector<ResultPair>* pairs) const {
  const SparseVector& v = x.vec;
  if (v.empty()) return;
  const BatchStorage& s = s_;
  RunStats& stats = scratch->stats;
  scratch->FitWindow(s.id.size());
  double* score = scratch->score.data();
  std::vector<uint32_t>& admitted = scratch->admitted;
  const size_t n = v.nnz();
  if (dims == nullptr) {  // a cross-query resolves each dim once
    scratch->dims.resize(n);
    for (size_t i = 0; i < n; ++i) {
      scratch->dims[i] = s.dims.Find(v.coord(i).dim);
    }
    dims = scratch->dims.data();
  }

  // Prefix magnitudes ||x'_j||: norm of coordinates strictly before
  // position j.
  std::vector<double>& prefix_norms = scratch->prefix_norms;
  if constexpr (Policy::kL2) {
    prefix_norms.resize(n);
    double sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      prefix_norms[i] = std::sqrt(sq);
      sq += v.coord(i).value * v.coord(i).value;
    }
  }

  // sz1 = θ / vm_x: minimum "weight capacity" |y|·vm_y of a viable y.
  const double sz1 = Policy::kAp ? theta_ / v.max_value() : 0.0;
  // m̂ at coordinate i: the recorded prefix value for a self-query, the
  // whole window's otherwise. rs1 sums in coordinate order either way,
  // exactly as MaxVector::Dot does.
  const auto mhat = [&](size_t i) {
    if (mhat_at != nullptr) return mhat_at[i];
    return dims[i] == DimDirectory::kAbsent ? 0.0 : s.mhat[dims[i]];
  };

  // Accumulates coordinate i's posting list into the candidates;
  // `admit_more` is false once the remaining bound cannot reach θ (it
  // only shrinks along the scan, so a position refused once is never
  // admitted later and need not be remembered).
  const auto scan = [&](size_t i, bool admit_more) {
    const uint32_t d = dims[i];
    if (d == DimDirectory::kAbsent) return;
    const double cv = v.coord(i).value;
    const size_t begin = s.begin[d];
    const size_t len = limits != nullptr ? limits[i] : s.begin[d + 1] - begin;
    const uint32_t* pos = s.post_pos.data() + begin;
    const double* vals = s.post_value.data() + begin;
    // SIMD path: batch the per-entry products over the whole column
    // (bit-identical to the scalar multiplies). Entries the AP size
    // filter later skips get a product they never read — the usual
    // compute-for-bandwidth trade — and the scalar default avoids it.
    const double* contrib = nullptr;
    const double* pnprod = nullptr;
    if (use_simd_ && len >= kernels::kMinSimdRun) {
      if (scratch->contrib.size() < len) scratch->contrib.resize(len);
      kernels::ProductColumn(vals, len, cv, scratch->contrib.data());
      contrib = scratch->contrib.data();
      if constexpr (Policy::kL2) {
        if (scratch->pnprod.size() < len) scratch->pnprod.resize(len);
        kernels::ProductColumn(s.post_pn.data() + begin, len, prefix_norms[i],
                               scratch->pnprod.data());
        pnprod = scratch->pnprod.data();
      }
    }
    for (size_t k = 0; k < len; ++k) {
      ++stats.entries_traversed;
      const uint32_t p = pos[k];
      if constexpr (Policy::kAp) {
        // Size filter: |y|·vm_y ≥ sz1 is necessary for dot(x,y) ≥ θ.
        if (!BoundAtLeast(s.size_weight[p], sz1)) continue;
      }
      double& sc = score[p];
      if constexpr (Policy::kL2) {
        if (sc < 0.0) continue;  // l2-pruned earlier: final
      }
      if (sc == 0.0) {
        if (!admit_more) continue;
        admitted.push_back(p);
        ++stats.candidates_generated;
      }
      sc += contrib != nullptr ? contrib[k] : cv * vals[k];
      if constexpr (Policy::kL2) {
        const double l2bound =
            sc + (pnprod != nullptr ? pnprod[k]
                                    : prefix_norms[i] * s.post_pn[begin + k]);
        if (!BoundAtLeast(l2bound, theta_)) {
          sc = BatchQueryScratch::kPruned;
          ++stats.l2_prunes;
        }
      }
    }
  };

  if constexpr (!Policy::kPrefixFilter) {
    for (size_t i = 0; i < n; ++i) scan(i, true);
  } else {
    double rs1 = 0.0;
    if constexpr (Policy::kAp) {
      for (size_t i = 0; i < n; ++i) rs1 += v.coord(i).value * mhat(i);
    }
    double rst = v.norm() * v.norm();
    for (size_t i = n; i-- > 0;) {  // reverse coordinate order
      const double cv = v.coord(i).value;
      const double rs2 = std::sqrt(std::max(rst, 0.0));
      double remscore = rs2;
      if constexpr (Policy::kAp) {
        remscore = Policy::kL2 ? std::min(rs1, rs2) : rs1;
      }
      scan(i, BoundAtLeast(remscore, theta_));
      if constexpr (Policy::kAp) rs1 -= cv * mhat(i);
      rst -= cv * cv;
    }
  }

  // CandVer, in admission order; zeroes every admitted slot on the way.
  for (const uint32_t p : admitted) {
    const double sc = score[p];
    score[p] = 0.0;
    if (!(sc > 0.0)) continue;  // pruned, or already verified
    ++stats.verify_calls;
    double dot = sc;
    if constexpr (Policy::kPrefixFilter) {
      const double ps1 = sc + s.q[p];
      if (!BoundAtLeast(ps1, theta_)) continue;
      const Coord* yp = s.prefix.data() + s.prefix_off[p];
      const size_t yp_nnz = s.prefix_off[p + 1] - s.prefix_off[p];
      if constexpr (Policy::kAp) {
        const double ds1 =
            sc + std::min(v.max_value() * s.prefix_sum[p],
                          s.prefix_max[p] * v.sum());
        if (!BoundAtLeast(ds1, theta_)) continue;
        const double sz2 = sc + static_cast<double>(std::min(n, yp_nnz)) *
                                    v.max_value() * s.prefix_max[p];
        if (!BoundAtLeast(sz2, theta_)) continue;
      }
      ++stats.full_dots;
      dot = sc + kernels::SparseDot(v.coords().data(), n, yp, yp_nnz,
                                    use_simd_);
    }
    if (dot >= theta_) {
      ResultPair pair;
      pair.a = s.id[p];
      pair.b = x.id;
      pair.ta = s.ts[p];
      pair.tb = x.ts;
      pair.dot = dot;
      pair.sim = dot;
      pairs->push_back(pair);
      ++stats.pairs_emitted;
    }
  }
  admitted.clear();
}

template class PrefixIndex<InvPolicy>;
template class PrefixIndex<ApPolicy>;
template class PrefixIndex<L2apPolicy>;
template class PrefixIndex<L2Policy>;

}  // namespace sssj
