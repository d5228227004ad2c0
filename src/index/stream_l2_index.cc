#include "index/stream_l2_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

namespace sssj {

namespace {

// Checkpoint format v2: columnar posting records behind a magic + version
// + scheme-tag header. v1 ("SSSJCKP1") stored row-major AoS postings and
// is deliberately not readable — the stored layout changed.
constexpr char kCheckpointMagic[8] = {'S', 'S', 'S', 'J', 'C', 'K', 'P', '2'};
constexpr uint32_t kCheckpointVersion = 2;
// On-disk tag for the index scheme that wrote the checkpoint (decoupled
// from the engine's IndexScheme enum, whose numeric values are not a
// serialization contract).
constexpr uint8_t kSchemeTagL2 = 2;

template <typename T>
void PutRaw(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetRaw(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return is.good();
}

// Reads `n` elements of a stored column, growing the buffer in bounded
// chunks so a corrupt length field cannot trigger a huge upfront
// allocation — a truncated stream fails after at most one chunk.
template <typename T>
bool GetColumn(std::istream& is, size_t n, std::vector<T>* out) {
  constexpr size_t kChunk = size_t{1} << 16;
  out->clear();
  while (out->size() < n) {
    const size_t take = std::min(kChunk, n - out->size());
    const size_t old = out->size();
    out->resize(old + take);
    is.read(reinterpret_cast<char*>(out->data() + old),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!is.good()) return false;
  }
  return true;
}

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

// Scans x's dimensions in reverse coordinate order. Lists are time-sorted,
// so the expired run at the front of each list is located by one binary
// search on the `ts` column and truncated; the live remainder is then
// walked newest → oldest over raw per-column pointers, accumulating
// dot-product contributions into cands_.
//
// Each walk is split at the remscore admission horizon of its coordinate
// (L2AdmitHorizon), computed at the walk's first remscore rejection: the
// split is the first posting with x.ts − ts > horizon, found by binary
// search on the `ts` column of the span that holds it. Before the split
// each posting costs one accumulator probe: a final (pruned) slot
// is skipped before any other work, and a fresh one has its decay
// evaluated once and cached in its slot (every posting of a candidate
// carries the candidate's own ts, so the cached value is the one a
// per-posting evaluation would produce, bit for bit). Past the split no
// fresh candidate can pass remscore, so a posting only matters if its id
// is already live: live_ counts the live candidates per `id & mask`
// slot, and a zero there skips the posting with no probe, no slot and no
// exp. A non-zero count probes cands_; a fresh or pruned slot found there
// is marked pruned, which is what the per-posting check would have done.
// Every posting still counts in entries_traversed, so the work counters
// match the unsplit walk exactly. The `id` column is read densely; `ts`,
// `value` and `prefix_norm` are only touched for unpruned candidates.
void StreamL2Index::GenerateCandidates(const StreamItem& x, Timestamp cutoff,
                                       L2PhaseStats* stats) {
  const SparseVector& v = x.vec;
  const size_t n = v.nnz();
  const bool kernel_exp = kernel_.use_simd;
  double rst = v.norm() * v.norm();
  // live_ is all zero again once the previous arrival's admissions are
  // cleared; an arrival that admitted nothing left nothing to clear.
  if (live_.empty()) {
    live_.assign(kLiveSlots, 0);
  } else if (cands_.admitted() > 0) {
    std::fill(live_.begin(), live_.end(), 0);
  }
  cands_.Reset();
  for (size_t i = n; i-- > 0;) {  // reverse coordinate order
    const Coord& c = v.coord(i);
    const double rs2 = std::sqrt(std::max(rst, 0.0));
    rst -= c.value * c.value;
    PostingList* found = lists_.Find(c.dim);
    if (found == nullptr) continue;
    PostingList& list = *found;
    list.NoteScanned(stats_.vectors_processed);  // scan-rate classifier
    if (list.empty()) continue;
    const size_t expired = list.LowerBoundTs(cutoff);
    if (expired > 0) NotePruned(lists_.TruncateFront(&list, expired));
    // Adds the posting's contribution to a live candidate, then applies
    // the l2bound early prune.
    auto accumulate = [&](CandidateMap::Slot* slot, const PostingSpan& sp,
                          size_t k) {
      slot->score += c.value * sp.value[k];
      if (options_.use_l2bound) {
        const double l2bound =
            slot->score + prefix_norms_[i] * sp.prefix_norm[k] * slot->decay;
        if (!BoundAtLeast(l2bound, params_.theta)) {
          slot->score = CandidateMap::kPruned;
          --live_[slot->id & kLiveMask];
          ++stats->l2_prunes;
        }
      }
    };
    // The horizon is computed at the walk's first remscore rejection, so
    // a walk that rejects nothing (a short list, or remscore disabled)
    // pays no log.
    double horizon = 0.0;
    bool have_horizon = false;
    bool past_horizon = false;  // a newer span already reached the split
    // Span entries are oldest first: the first index of [0, end) that
    // lies before the horizon.
    auto split_of = [&](const PostingSpan& sp, size_t end) {
      const Timestamp* first_before = std::partition_point(
          sp.ts, sp.ts + end,
          [&](Timestamp t) { return x.ts - t > horizon; });
      return static_cast<size_t>(first_before - sp.ts);
    };
    // The block-cursor walk hands out the hot tail's raw segments first,
    // then decompresses cold frozen blocks one at a time into the kernel
    // scratch — the entry visit order (and so per-candidate FP
    // accumulation) is identical to the untiered two-segment scan.
    list.ForSpansNewestFirst(
        0, list.size(), &kernel_.posting, [&](const PostingSpan& sp) {
      stats->entries_traversed += sp.len;
      // [0, split) lie past the horizon, [split, len) before it.
      size_t split = 0;
      if (past_horizon) {
        split = sp.len;
      } else if (have_horizon) {
        split = split_of(sp, sp.len);
      }
      for (size_t k = sp.len; k-- > split;) {  // newest entry first
        CandidateMap::Slot* slot = cands_.FindOrCreate(sp.id[k]);
        if (slot->score < 0.0) continue;  // pruned: final
        if (slot->score == 0.0) {         // first touch
          // SIMD path: DecayOne, bit-identical to a DecayColumn value.
          // Scalar path: libm std::exp, the bit-exact reference.
          slot->decay =
              kernel_exp ? kernels::DecayOne(sp.ts[k], x.ts, params_.lambda)
                         : std::exp(-params_.lambda * (x.ts - sp.ts[k]));
          // remscore = rs2 · e^{−λΔt} (line 7, AP part disabled). rs2
          // never grows along the reverse-coordinate scan and the decay
          // is fixed per candidate, so a rejection is final.
          if (options_.use_remscore_bound &&
              !BoundAtLeast(rs2 * slot->decay, params_.theta)) {
            slot->score = CandidateMap::kPruned;
            if (!have_horizon) {
              horizon = L2AdmitHorizon(rs2, params_.theta, params_.lambda);
              have_horizon = true;
              split = split_of(sp, k);
            }
            continue;
          }
          slot->ts = sp.ts[k];
          cands_.NoteAdmitted();
          ++live_[sp.id[k] & kLiveMask];
          ++stats->candidates_generated;
        }
        accumulate(slot, sp, k);
      }
      if (split > 0) past_horizon = true;
      for (size_t k = split; k-- > 0;) {  // past the horizon: live ids only
        if (live_[sp.id[k] & kLiveMask] == 0) continue;
        CandidateMap::Slot* slot = cands_.FindOrCreate(sp.id[k]);
        if (slot->score <= 0.0) {  // remscore would reject a fresh id here
          slot->score = CandidateMap::kPruned;
          continue;
        }
        accumulate(slot, sp, k);
      }
    });
  }
}

// The decay e^{−λΔt} each candidate needs here was evaluated once by
// GenerateCandidates and cached in its slot. On the scalar path that is
// libm std::exp of the same operands (x.ts − the candidate's ts) this
// loop would pass, so reusing it is bit-exact and saves one exp per live
// candidate. The SIMD path cached kernels::DecayOne's value, which may
// differ from libm in the last bits, so it keeps evaluating std::exp here
// and both kernel paths verify with the same decay.
void StreamL2Index::VerifyCandidates(const StreamItem& x, L2PhaseStats* stats,
                                     ResultSink* sink) const {
  const bool use_simd = kernel_.use_simd;
  cands_.ForEachLiveSlot([&](const CandidateMap::Slot& slot) {
    ++stats->verify_calls;
    const ResidualRecord* rec = residuals_.Find(slot.id);
    if (rec == nullptr) return;  // defensive: record outlives its postings
    const double decay =
        use_simd ? std::exp(-params_.lambda * (x.ts - slot.ts)) : slot.decay;
    if (options_.use_ps1_bound) {
      const double ps1 = (slot.score + rec->q) * decay;
      if (!BoundAtLeast(ps1, params_.theta)) return;
    }
    ++stats->full_dots;
    // SparseDot is bit-identical to x.vec.Dot on both kernel paths; the
    // SIMD variant only accelerates the merge cursors.
    const double s =
        slot.score + kernels::SparseDot(x.vec, rec->prefix, use_simd);
    const double sim = s * decay;
    if (sim >= params_.theta) {
      ResultPair p;
      p.a = slot.id;
      p.b = x.id;
      p.ta = slot.ts;
      p.tb = x.ts;
      p.dot = s;
      p.sim = sim;
      p.Canonicalize();
      sink->Emit(p);
      ++stats->pairs_emitted;
    }
  });
}

void StreamL2Index::ProcessArrival(const StreamItem& x, ResultSink* sink) {
  const SparseVector& v = x.vec;
  const Timestamp cutoff = x.ts - params_.tau;
  ++stats_.vectors_processed;
  residuals_.ExpireOlderThan(cutoff);
  if (v.empty()) return;

  L2ComputePrefixNorms(v, &prefix_norms_);
  L2PhaseStats phase_stats;

  // ---- Candidate generation (Algorithm 7, green lines) ----
  GenerateCandidates(x, cutoff, &phase_stats);

  // ---- Candidate verification (Algorithm 8, green lines) ----
  VerifyCandidates(x, &phase_stats, sink);

  // ---- Index construction (Algorithm 6, green lines) ----
  const L2IndexSplit split = L2ComputeIndexSplit(v, params_.theta);
  const size_t n = v.nnz();
  if (split.first_indexed < n) {
    residuals_.Insert(x.id, L2MakeResidualRecord(x, split));
    for (size_t i = split.first_indexed; i < n; ++i) {
      const Coord& c = v.coord(i);
      lists_.Append(c.dim, x.id, c.value, prefix_norms_[i], x.ts,
                    stats_.vectors_processed);
    }
    NoteIndexed(n - split.first_indexed);
  }
  phase_stats.MergeInto(&stats_);
}

void StreamL2Index::Clear() {
  lists_.Clear();
  residuals_.Clear();
  live_entries_ = 0;
}

bool StreamL2Index::Serialize(std::ostream& os) const {
  os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutRaw(os, kCheckpointVersion);
  PutRaw(os, kSchemeTagL2);
  PutRaw(os, params_.theta);
  PutRaw(os, params_.lambda);
  PutRaw(os, static_cast<uint64_t>(live_entries_));

  PutRaw(os, static_cast<uint64_t>(lists_.size()));
  // Column staging: frozen blocks must be decompressed before writing, so
  // the columns are materialized per list and written whole. The on-disk
  // record stays exact fp64 regardless of the in-memory value tier (a
  // quantized list serializes its already-quantized values), keeping the
  // SSSJCKP2 format unchanged.
  FrozenColumns scratch;
  std::vector<VectorId> ids;
  std::vector<double> values;
  std::vector<double> prefix_norms;
  std::vector<Timestamp> tss;
  for (const auto& [dim, list] : lists_) {
    PutRaw(os, dim);
    const size_t len = list.size();
    PutRaw(os, static_cast<uint64_t>(len));
    ids.clear();
    values.clear();
    prefix_norms.clear();
    tss.clear();
    list.ForSpansOldestFirst(0, len, &scratch, [&](const PostingSpan& sp) {
      ids.insert(ids.end(), sp.id, sp.id + sp.len);
      values.insert(values.end(), sp.value, sp.value + sp.len);
      prefix_norms.insert(prefix_norms.end(), sp.prefix_norm,
                          sp.prefix_norm + sp.len);
      tss.insert(tss.end(), sp.ts, sp.ts + sp.len);
    });
    os.write(reinterpret_cast<const char*>(ids.data()),
             static_cast<std::streamsize>(len * sizeof(VectorId)));
    os.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(len * sizeof(double)));
    os.write(reinterpret_cast<const char*>(prefix_norms.data()),
             static_cast<std::streamsize>(len * sizeof(double)));
    os.write(reinterpret_cast<const char*>(tss.data()),
             static_cast<std::streamsize>(len * sizeof(Timestamp)));
  }

  PutRaw(os, static_cast<uint64_t>(residuals_.size()));
  // LinkedHashMap iterates in insertion (= time) order; preserving it is
  // required for the O(1) expiry on restore.
  residuals_.ForEachInOrder([&os](VectorId id, const ResidualRecord& rec) {
    PutRaw(os, id);
    PutRaw(os, rec.ts);
    PutRaw(os, rec.q);
    PutRaw(os, rec.vm);
    PutRaw(os, rec.sum);
    PutRaw(os, rec.nnz);
    PutRaw(os, static_cast<uint64_t>(rec.prefix.nnz()));
    for (const Coord& c : rec.prefix) {
      PutRaw(os, c.dim);
      PutRaw(os, c.value);
    }
  });
  return os.good();
}

bool StreamL2Index::Deserialize(std::istream& is, std::string* error) {
  Clear();
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is.good()) {
    SetError(error, "truncated checkpoint (missing header)");
    return false;
  }
  if (std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    if (std::memcmp(magic, kCheckpointMagic, 7) == 0) {
      SetError(error, std::string("unsupported checkpoint format '") +
                          std::string(magic, 8) + "' (expected 'SSSJCKP2'; "
                          "stale checkpoint from an older build?)");
    } else {
      SetError(error, "not a sssj checkpoint (bad magic)");
    }
    return false;
  }
  uint32_t version;
  uint8_t scheme;
  if (!GetRaw(is, &version) || !GetRaw(is, &scheme)) {
    SetError(error, "truncated checkpoint (missing header)");
    return false;
  }
  if (version != kCheckpointVersion) {
    SetError(error, "unsupported checkpoint version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kCheckpointVersion) + ")");
    return false;
  }
  if (scheme != kSchemeTagL2) {
    SetError(error, "checkpoint was written by a different index scheme "
                    "(tag " + std::to_string(scheme) + ", expected L2)");
    return false;
  }
  double theta, lambda;
  uint64_t live;
  if (!GetRaw(is, &theta) || !GetRaw(is, &lambda) || !GetRaw(is, &live)) {
    SetError(error, "truncated checkpoint (missing parameters)");
    return false;
  }
  if (theta != params_.theta || lambda != params_.lambda) {
    SetError(error, "checkpoint parameter mismatch: saved theta=" +
                        std::to_string(theta) + " lambda=" +
                        std::to_string(lambda) + ", engine has theta=" +
                        std::to_string(params_.theta) + " lambda=" +
                        std::to_string(params_.lambda));
    return false;
  }

  uint64_t num_lists;
  if (!GetRaw(is, &num_lists)) {
    SetError(error, "truncated checkpoint (missing posting lists)");
    return false;
  }
  std::vector<VectorId> ids;
  std::vector<double> values;
  std::vector<double> prefix_norms;
  std::vector<Timestamp> tss;
  for (uint64_t l = 0; l < num_lists; ++l) {
    DimId dim;
    uint64_t len;
    if (!GetRaw(is, &dim) || !GetRaw(is, &len)) {
      Clear();
      SetError(error, "truncated checkpoint (posting list header)");
      return false;
    }
    const size_t n = static_cast<size_t>(len);
    if (!GetColumn(is, n, &ids) || !GetColumn(is, n, &values) ||
        !GetColumn(is, n, &prefix_norms) || !GetColumn(is, n, &tss)) {
      Clear();
      SetError(error, "truncated checkpoint (posting columns)");
      return false;
    }
    lists_.FindOrCreate(dim);  // restores empty lists too
    for (size_t i = 0; i < n; ++i) {
      lists_.Append(dim, ids[i], values[i], prefix_norms[i], tss[i]);
    }
  }

  uint64_t num_residuals;
  if (!GetRaw(is, &num_residuals)) {
    Clear();
    SetError(error, "truncated checkpoint (missing residuals)");
    return false;
  }
  for (uint64_t r = 0; r < num_residuals; ++r) {
    VectorId id;
    ResidualRecord rec;
    uint64_t prefix_len;
    if (!GetRaw(is, &id) || !GetRaw(is, &rec.ts) || !GetRaw(is, &rec.q) ||
        !GetRaw(is, &rec.vm) || !GetRaw(is, &rec.sum) ||
        !GetRaw(is, &rec.nnz) || !GetRaw(is, &prefix_len)) {
      Clear();
      SetError(error, "truncated checkpoint (residual record)");
      return false;
    }
    std::vector<Coord> coords;
    coords.reserve(static_cast<size_t>(std::min<uint64_t>(prefix_len, 1u << 20)));
    for (uint64_t k = 0; k < prefix_len; ++k) {
      Coord c;
      if (!GetRaw(is, &c.dim) || !GetRaw(is, &c.value)) {
        Clear();
        SetError(error, "truncated checkpoint (residual prefix)");
        return false;
      }
      coords.push_back(c);
    }
    rec.prefix = SparseVector::FromCoords(std::move(coords));
    residuals_.Insert(id, std::move(rec));
  }
  live_entries_ = static_cast<size_t>(live);
  return true;
}

}  // namespace sssj
