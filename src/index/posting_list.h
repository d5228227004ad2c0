// Posting list backed by a structure-of-arrays column store (paper §6.2
// implements posting lists as circular byte buffers; here each field is
// its own circular column so scans only stream the columns they read).
//
// Entries are appended in arrival order. For the INV and L2 schemes the
// lists therefore stay sorted by timestamp, which enables two
// optimizations used by the hot scan loops:
//   * the expiry boundary is found by binary search on the `ts` column
//     (LowerBoundTs) instead of per-entry checks, and everything older is
//     truncated in O(log n + shrink);
//   * candidate generation walks raw per-column pointers (Spans), reading
//     only `id`/`ts` densely and touching `value`/`prefix_norm` lazily.
// The L2AP scheme loses the sorted property (re-indexing appends old
// items) and must scan forward, compacting expired entries in place
// (CompactExpired works column-wise and never assumes time order).
//
// Tiered storage (ROADMAP item 2): when enabled via TieredStorageOptions
// a list is two tiers — a cold prefix of immutable FrozenBlocks
// (util/frozen_block.h) followed by the hot mutable circular tail.
// Logical indices still run 0 (oldest, possibly frozen) to size();
// MaybeFreeze migrates the oldest tail entries into blocks using the
// hot/cold classifier (dormancy by appends-since-last-scan, scan rate
// by an EWMA of arrivals between scans): scan-cold lists freeze
// compressed, scan-hot lists freeze raw zero-copy blocks whose columns
// the ForSpans* walks serve directly — only compressed blocks are
// decompressed, one at a time, into caller-owned FrozenColumns scratch.
// Expiry drops whole frozen blocks by their max-ts header; only the
// boundary block's ts stream is ever decoded. Raw blocks and the exact
// value tier read back bit-identical doubles, so freezing never changes
// engine output.
#ifndef SSSJ_INDEX_POSTING_LIST_H_
#define SSSJ_INDEX_POSTING_LIST_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "core/types.h"
#include "util/columnar_buffer.h"
#include "util/frozen_block.h"

namespace sssj {

// One posting: vector reference, coordinate value, prefix magnitude
// ||y'_j|| (the L2AP/L2 addition; unused by INV), and arrival timestamp.
// PostingList decomposes it into four parallel columns.
struct PostingEntry {
  VectorId id = 0;
  double value = 0.0;
  double prefix_norm = 0.0;
  Timestamp ts = 0.0;
};

// A physically contiguous run of postings: one raw pointer per column,
// all indexed by the same [0, len) offset. `begin` is the logical index
// (from the oldest entry) of the run's first posting. Pointers are
// invalidated by any mutation of the list; pointers into frozen-block
// scratch are additionally invalidated by the next block's decompression
// (consume each span before the walk moves on).
struct PostingSpan {
  const VectorId* id = nullptr;
  const double* value = nullptr;
  const double* prefix_norm = nullptr;
  const Timestamp* ts = nullptr;
  size_t begin = 0;
  size_t len = 0;
};

class PostingList {
 public:
  size_t size() const { return frozen_live_ + store_.size(); }
  bool empty() const { return frozen_live_ == 0 && store_.empty(); }

  // Per-column element access, logical index from the front (oldest).
  // Indices inside the frozen range decompress the containing block per
  // call — test/serialization convenience, not a hot path.
  VectorId id(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).id
                            : store_.Get<0>(i - frozen_live_);
  }
  double value(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).value
                            : store_.Get<1>(i - frozen_live_);
  }
  double prefix_norm(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).prefix_norm
                            : store_.Get<2>(i - frozen_live_);
  }
  Timestamp ts(size_t i) const {
    return i < frozen_live_ ? FrozenGet(i).ts
                            : store_.Get<3>(i - frozen_live_);
  }

  // Materializes one posting as a row (tests / serialization convenience;
  // hot loops should use the span walks instead).
  PostingEntry Get(size_t i) const {
    if (i < frozen_live_) return FrozenGet(i);
    const size_t t = i - frozen_live_;
    return PostingEntry{store_.Get<0>(t), store_.Get<1>(t), store_.Get<2>(t),
                        store_.Get<3>(t)};
  }

  void Append(VectorId id, double value, double prefix_norm, Timestamp ts) {
    store_.PushBack(id, value, prefix_norm, ts);
    ++appends_since_scan_;
  }
  void Append(const PostingEntry& e) {
    Append(e.id, e.value, e.prefix_norm, e.ts);
  }

  // ---- hot/cold classifier + freezing ----

  // Marks the list as scan-active (resets the dormancy counter) and,
  // when the index passes its arrival counter as `tick`, feeds the
  // scan-rate classifier: an EWMA of arrivals elapsed between
  // consecutive scans of this list.
  void NoteScanned(uint64_t tick = 0) {
    appends_since_scan_ = 0;
    if (tick != 0) {
      if (last_scan_tick_ != 0 && tick > last_scan_tick_) {
        const uint64_t gap = tick - last_scan_tick_;
        const uint64_t ew = (3ull * scan_gap_ewma_ + gap) / 4;
        scan_gap_ewma_ = ew > UINT32_MAX ? UINT32_MAX
                                         : static_cast<uint32_t>(ew);
      }
      last_scan_tick_ = tick;
    }
  }

  // Arrivals between consecutive scans of this list (EWMA); 0 until two
  // ticked scans have been observed.
  uint32_t scan_gap() const { return scan_gap_ewma_; }

  // Migrates cold tail entries into frozen blocks when the mutable tail
  // outgrew the classifier's target. Two regimes, decided per call:
  //
  //   scan-cold — the list is dormant (many appends, no scans) or its
  //   scan rate is low enough that decompressing it on the rare scan is
  //   cheap (size <= scan_gap * cold_scan_budget; needs the index's
  //   arrival `tick`, see TieredStorageOptions). Keeps only a small
  //   mutable tail and freezes compressed blocks.
  //
  //   scan-hot — everything else. Keeps the large hot tail and freezes
  //   overflow into raw zero-copy blocks: scans read them directly (no
  //   thaw), so the only effect is squeezing out the circular buffer's
  //   capacity slack.
  //
  // No-op unless opts.enabled. Raw blocks are always exact; with the
  // exact value tier freeze timing is unobservable in engine output.
  void MaybeFreeze(const TieredStorageOptions& opts, uint64_t tick = 0) {
    if (!opts.enabled || opts.block_entries == 0) return;
    const bool scan_cold =
        appends_since_scan_ >= opts.dormant_after_appends ||
        (tick != 0 && scan_gap_ewma_ != 0 &&
         size() <= static_cast<uint64_t>(scan_gap_ewma_) *
                       opts.cold_scan_budget);
    if (tick != 0 || scan_cold) {
      // Scan-rate-tracked lists (and legacy dormant ones) all keep the
      // small tail and freeze in quanta, amending the newest block until
      // it fills: raw blocks scan zero-copy, so even a scan-hot list
      // loses nothing by freezing early — it just sheds the circular
      // buffer's power-of-two slack. The classifier only picks the
      // block form: compressed when scans are rare enough to amortize
      // the decode, raw otherwise.
      const bool compress = tick == 0 || scan_cold;
      size_t quantum = opts.cold_freeze_quantum != 0
                           ? opts.cold_freeze_quantum
                           : opts.block_entries;
      // Each amend rewrites the whole newest block, so a small quantum
      // on a frequently appended list is churn. For raw blocks — the
      // scan-hot head lists, which also absorb most appends — batch at
      // least a quarter block per amend: the extra mutable-tail slack
      // lives on only those few lists, while the memcpy traffic drops
      // by block/(4*quantum).
      if (!compress && quantum < opts.block_entries / 4) {
        quantum = opts.block_entries / 4;
      }
      const size_t keep = opts.dormant_tail_entries;
      if (store_.size() >= keep + quantum) {
        FreezeQuantum(store_.size() - keep, opts.block_entries,
                      opts.value_tier, compress);
      }
      return;
    }
    // Untracked non-dormant lists: legacy behavior — large hot tail,
    // compressed whole blocks.
    while (store_.size() >= opts.hot_tail_entries + opts.block_entries) {
      FreezeFront(opts.block_entries, opts.value_tier, /*compress=*/true);
    }
  }

  size_t frozen_blocks() const { return frozen_.size(); }
  size_t frozen_live_entries() const { return frozen_live_; }

  // ---- iteration ----

  // Block-cursor walks over the logical range [begin, end): fn(span) is
  // invoked once per physically contiguous run — newest-to-oldest or
  // oldest-to-newest — covering the hot tail's (≤2) segments directly
  // and each intersecting frozen block decompressed into `scratch`.
  // Entries inside every span always appear oldest→newest; the *order of
  // spans* carries the direction, exactly like the two-segment walks the
  // untiered list produced — so per-candidate FP accumulation order, and
  // with it the determinism contract, is unchanged. Span pointers into
  // `scratch` die when the next block is thawed: consume each span
  // before returning from fn. Do not mutate the list from the callback.
  template <typename Fn>
  void ForSpansNewestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                           Fn&& fn) const {
    const size_t fl = frozen_live_;
    if (end > fl) {  // hot tail first (newest)
      PostingSpan spans[2];
      const size_t n =
          TailSpans(begin > fl ? begin - fl : 0, end - fl, spans);
      for (size_t s = n; s-- > 0;) fn(spans[s]);
    }
    if (begin < fl) {
      const size_t fend = end < fl ? end : fl;
      size_t block_end = fl;
      for (size_t b = frozen_.size(); b-- > 0 && block_end > begin;) {
        const size_t skip = b == 0 ? first_skip_ : 0;
        const size_t live = frozen_[b].count() - skip;
        const size_t block_start = block_end - live;
        if (block_start < fend) {
          EmitFrozenSpan(b, skip, block_start,
                         begin > block_start ? begin - block_start : 0,
                         fend < block_end ? fend - block_start : live,
                         scratch, fn);
        }
        block_end = block_start;
      }
    }
  }

  template <typename Fn>
  void ForSpansOldestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                           Fn&& fn) const {
    const size_t fl = frozen_live_;
    if (begin < fl) {
      const size_t fend = end < fl ? end : fl;
      size_t block_start = 0;
      size_t skip = first_skip_;
      for (size_t b = 0; b < frozen_.size() && block_start < fend; ++b) {
        const size_t live = frozen_[b].count() - skip;
        const size_t block_end = block_start + live;
        if (block_end > begin) {
          EmitFrozenSpan(b, skip, block_start,
                         begin > block_start ? begin - block_start : 0,
                         fend < block_end ? fend - block_start : live,
                         scratch, fn);
        }
        block_start = block_end;
        skip = 0;
      }
    }
    if (end > fl) {
      PostingSpan spans[2];
      const size_t n =
          TailSpans(begin > fl ? begin - fl : 0, end - fl, spans);
      for (size_t s = 0; s < n; ++s) fn(spans[s]);
    }
  }

  // Applies fn(span, k) to every posting of the logical range [begin,
  // end), walking newest → oldest (the scan order of the time-sorted
  // schemes) or oldest → newest (L2AP's forward scan). The callback
  // indexes the span's columns itself, so it reads only the columns it
  // needs. Do not mutate the list from the callback. The scratch-less
  // overloads thaw into a local buffer (fine for untiered lists; pass a
  // reused scratch on hot paths).
  template <typename Fn>
  void ForEachNewestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                          Fn&& fn) const {
    ForSpansNewestFirst(begin, end, scratch, [&fn](const PostingSpan& sp) {
      for (size_t k = sp.len; k-- > 0;) fn(sp, k);
    });
  }
  template <typename Fn>
  void ForEachNewestFirst(size_t begin, size_t end, Fn&& fn) const {
    FrozenColumns local;
    ForEachNewestFirst(begin, end, &local, fn);
  }
  template <typename Fn>
  void ForEachOldestFirst(size_t begin, size_t end, FrozenColumns* scratch,
                          Fn&& fn) const {
    ForSpansOldestFirst(begin, end, scratch, [&fn](const PostingSpan& sp) {
      for (size_t k = 0; k < sp.len; ++k) fn(sp, k);
    });
  }
  template <typename Fn>
  void ForEachOldestFirst(size_t begin, size_t end, Fn&& fn) const {
    FrozenColumns local;
    ForEachOldestFirst(begin, end, &local, fn);
  }

  // Maps the logical range [begin, end) — which must lie entirely in the
  // hot tail (begin >= frozen_live_entries(); trivially true for
  // untiered lists) — onto at most two contiguous per-column pointer
  // runs. Returns the number of spans written. Ranges that may reach the
  // frozen tier must use the ForSpans* walks instead.
  size_t Spans(size_t begin, size_t end, PostingSpan out[2]) const {
    assert(begin >= frozen_live_);
    return TailSpans(begin - frozen_live_, end - frozen_live_, out);
  }

  // ---- expiry ----

  // First logical index with ts >= cutoff — the number of expired entries
  // — found by binary search. Valid ONLY while the list is time-sorted
  // (INV/L2; never re-indexed), where ts is non-decreasing front to back.
  // The oldest entry is probed first so the common no-expiry case costs a
  // single predictable branch instead of a full search. Frozen blocks are
  // skipped whole by their max-ts header; only the boundary block's ts
  // stream is decoded.
  size_t LowerBoundTs(Timestamp cutoff) const {
    if (frozen_live_ == 0) {
      if (store_.empty() || store_.Get<3>(0) >= cutoff) return 0;
      return LowerBoundTsSlow(cutoff);
    }
    return LowerBoundTsTiered(cutoff);
  }

  // Drops the `n` oldest entries (expiry truncation, time-sorted lists
  // only). Returns n for convenience. Wholly expired frozen blocks are
  // dropped without touching their bytes; a partially expired boundary
  // block just advances the list's skip offset.
  size_t TruncateFront(size_t n);

  // Removes every entry with ts < cutoff, preserving order (forward
  // compaction, used by L2AP whose lists are not time-sorted). Returns
  // the number of removed entries. Frozen blocks whose max_ts is older
  // than the cutoff are dropped whole; straddling blocks are thawed
  // (into `scratch` when given), filtered, and re-frozen at their own
  // tier.
  size_t CompactExpired(Timestamp cutoff, FrozenColumns* scratch = nullptr);

  void Clear() {
    store_.Clear();
    frozen_.clear();
    frozen_bytes_ = 0;
    first_skip_ = 0;
    frozen_live_ = 0;
    appends_since_scan_ = 0;
    scan_gap_ewma_ = 0;
    last_scan_tick_ = 0;
  }

  // True per-column footprint of the mutable tail's backing store, in
  // bytes (the pre-tiering meaning, kept for the buffer-level tests).
  size_t capacity_bytes() const { return store_.capacity_bytes(); }

  // Full allocated footprint: the list object itself (classifier state,
  // buffer headers), mutable-tail capacity, frozen block headers (by the
  // vector's capacity) and block payloads. What the index-level
  // MemoryBytes() accounting sums — strictly larger than
  // capacity_bytes(), never payload-only. O(1): the payload total is
  // kept current wherever a block is created, rewritten or dropped.
  size_t memory_bytes() const {
    return sizeof(PostingList) + store_.capacity_bytes() +
           frozen_.capacity() * sizeof(FrozenBlock) + frozen_bytes_;
  }

  // The cold tier, oldest block first (read-only; for introspection and
  // the accounting tests).
  const std::vector<FrozenBlock>& frozen() const { return frozen_; }

 private:
  using ColumnStore = ColumnarBuffer<VectorId, double, double, Timestamp>;

  size_t LowerBoundTsSlow(Timestamp cutoff) const;  // tail-relative
  size_t LowerBoundTsTiered(Timestamp cutoff) const;
  PostingEntry FrozenGet(size_t i) const;
  void FreezeFront(size_t n, ValueTier tier, bool compress);
  // Rewrites the front block without its consumed (first_skip_) prefix,
  // reclaiming the dead bytes. Requires a non-empty frozen_ and
  // first_skip_ > 0.
  void CompactFrontBlock();
  void FreezeQuantum(size_t n, size_t block_entries, ValueTier tier,
                     bool compress);
  size_t CompactExpiredTail(Timestamp cutoff);
  // A block's allocation beyond its header (the header is counted by
  // frozen_'s capacity).
  static size_t PayloadBytes(const FrozenBlock& blk) {
    return blk.memory_bytes() - sizeof(FrozenBlock);
  }

  // Tail-relative span mapping; out[s].begin is reported in full logical
  // coordinates (offset by the frozen live count).
  size_t TailSpans(size_t begin, size_t end, PostingSpan out[2]) const {
    ColumnStore::Segment segs[2];
    const size_t n = store_.Segments(begin, end, segs);
    for (size_t s = 0; s < n; ++s) {
      out[s].id = store_.ColumnData<0>() + segs[s].phys;
      out[s].value = store_.ColumnData<1>() + segs[s].phys;
      out[s].prefix_norm = store_.ColumnData<2>() + segs[s].phys;
      out[s].ts = store_.ColumnData<3>() + segs[s].phys;
      out[s].begin = segs[s].begin + frozen_live_;
      out[s].len = segs[s].len;
    }
    return n;
  }

  // Emits block b's [lo, hi) live sub-range (block-local, after `skip`)
  // as one span at logical `block_start`. Raw blocks are served
  // zero-copy straight from their columns; compressed blocks thaw into
  // scratch first.
  template <typename Fn>
  void EmitFrozenSpan(size_t b, size_t skip, size_t block_start, size_t lo,
                      size_t hi, FrozenColumns* scratch, Fn&& fn) const {
    if (hi <= lo) return;
    const FrozenBlock& blk = frozen_[b];
    PostingSpan sp;
    if (!blk.compressed()) {
      sp.id = blk.raw_id() + skip + lo;
      sp.value = blk.raw_value() + skip + lo;
      sp.ts = blk.raw_ts() + skip + lo;
      const double* pn = blk.raw_prefix_norm();
      if (pn == nullptr) {
        // Elided all-zero column: the span contract promises readable
        // pointers, so serve the scratch's always-zero buffer (grow-only
        // — no per-scan memset).
        if (scratch->zeros.size() < hi - lo) {
          scratch->zeros.resize(hi - lo, 0.0);
        }
        sp.prefix_norm = scratch->zeros.data();
      } else {
        sp.prefix_norm = pn + skip + lo;
      }
    } else {
      blk.Thaw(scratch, /*fill_elided_prefix_norm=*/false);
      sp.id = scratch->id.data() + skip + lo;
      sp.value = scratch->value.data() + skip + lo;
      sp.ts = scratch->ts.data() + skip + lo;
      if (blk.has_prefix_norm()) {
        sp.prefix_norm = scratch->prefix_norm.data() + skip + lo;
      } else {
        if (scratch->zeros.size() < hi - lo) {
          scratch->zeros.resize(hi - lo, 0.0);
        }
        sp.prefix_norm = scratch->zeros.data();
      }
    }
    sp.begin = block_start + lo;
    sp.len = hi - lo;
    fn(sp);
  }

  ColumnStore store_;               // hot mutable tail
  std::vector<FrozenBlock> frozen_; // cold tier, oldest block first
  size_t frozen_bytes_ = 0;         // Σ PayloadBytes over frozen_
  size_t first_skip_ = 0;           // expired entries at frozen_[0]'s front
  size_t frozen_live_ = 0;          // live entries across all frozen blocks
  uint32_t appends_since_scan_ = 0; // dormancy classifier state
  uint32_t scan_gap_ewma_ = 0;      // EWMA arrivals between scans (ticked)
  uint64_t last_scan_tick_ = 0;     // arrival counter at the last scan
};

// The posting lists of one stream index, keyed by dimension, with their
// summed footprint kept current: MemoryBytes() is O(1), so the per-push
// reads by JoinService and the budget cost nothing. Postings enter and
// leave only through the methods below, each of which folds the touched
// list's change in memory_bytes() into the total; Find hands out a list
// for NoteScanned and the const walks, never to change its entries.
// The tiered storage options live here too, since Append is where lists
// freeze.
//
// Lookup is a flat open-addressing directory with linear probing, at
// most 3/4 full; each 8-byte slot holds a dim and its list's insertion
// position. A dim's home slot is the top bits of dim × 2^64/φ (Fibonacci
// hashing), not `dim & mask`: dims are Zipfian, so the frequent low dims
// fill one contiguous run of slots, and under `dim & mask` every higher
// dim aliasing into that run, present or absent, probed to its end (STR-L2
// ran 2.2x slower than with the std::unordered_map this replaced on a
// 625-item RCV1-like stream). The lists themselves live in fixed-size
// chunks that never move, so a PostingList* stays valid while the
// directory grows, and iteration visits the lists in insertion order.
// Nothing is allocated before the first insert.
class PostingMap {
 public:
  struct Entry {
    DimId dim = 0;
    PostingList list;
  };

  // A directory slot: `pos` is 1 + the list's insertion index, 0 = empty.
  struct Slot {
    DimId dim = 0;
    uint32_t pos = 0;
  };

  // Lists per chunk. A chunk is allocated whole, so this is also the
  // most list objects the map holds unused.
  static constexpr size_t kChunkLists = 16;

  // Forward iteration over the entries in insertion order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const Entry& operator*() const { return map_->At(i_); }
    const Entry* operator->() const { return &map_->At(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    friend class PostingMap;
    const_iterator(const PostingMap* map, size_t i) : map_(map), i_(i) {}
    const PostingMap* map_;
    size_t i_;
  };

  explicit PostingMap(const TieredStorageOptions& tiered = {})
      : tiered_(tiered) {}

  // dim's list, or nullptr when dim was never indexed.
  PostingList* Find(DimId dim) {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[Probe(dim)];
    return s.pos == 0 ? nullptr : &At(s.pos - 1).list;
  }

  // dim's list, created empty on first use.
  PostingList* FindOrCreate(DimId dim) { return &Insert(dim); }

  // Appends one posting to dim's list (created on first use), then lets
  // the list freeze its cold tail; `tick` is the index's arrival counter
  // for the scan-rate classifier (PostingList::MaybeFreeze).
  void Append(DimId dim, VectorId id, double value, double prefix_norm,
              Timestamp ts, uint64_t tick = 0) {
    PostingList& list = Insert(dim);
    const size_t before = list.memory_bytes();
    list.Append(id, value, prefix_norm, ts);
    list.MaybeFreeze(tiered_, tick);
    list_bytes_ += list.memory_bytes() - before;
  }

  // PostingList::TruncateFront / CompactExpired on a list of this map.
  size_t TruncateFront(PostingList* list, size_t n) {
    const size_t before = list->memory_bytes();
    list->TruncateFront(n);
    list_bytes_ += list->memory_bytes() - before;
    return n;
  }
  size_t CompactExpired(PostingList* list, Timestamp cutoff,
                        FrozenColumns* scratch) {
    const size_t before = list->memory_bytes();
    const size_t removed = list->CompactExpired(cutoff, scratch);
    list_bytes_ += list->memory_bytes() - before;
    return removed;
  }

  // Drops every list and releases the directory and the chunks.
  void Clear() {
    slots_ = std::vector<Slot>();
    shift_ = 64;
    chunks_ = std::vector<std::unique_ptr<Entry[]>>();
    size_ = 0;
    list_bytes_ = 0;
  }

  size_t size() const { return size_; }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  // Introspection for the accounting tests: directory slots, chunk-table
  // capacity, and list objects the chunks hold (used or not).
  size_t directory_capacity() const { return slots_.capacity(); }
  size_t chunk_table_capacity() const { return chunks_.capacity(); }
  size_t list_capacity() const { return chunks_.size() * kChunkLists; }

  // Allocated footprint: the directory, the chunk table, every chunk
  // whole (the list objects live there), and what each list holds beyond
  // its object. Capacity, not payload — the signal the tiering budget
  // acts on.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           chunks_.capacity() * sizeof(std::unique_ptr<Entry[]>) +
           list_capacity() * sizeof(Entry) + list_bytes_;
  }

 private:
  Entry& At(size_t i) { return chunks_[i / kChunkLists][i % kChunkLists]; }
  const Entry& At(size_t i) const {
    return chunks_[i / kChunkLists][i % kChunkLists];
  }

  // The slot holding dim, or the empty slot where it would go. Requires
  // a non-empty directory (which always has an empty slot: Create keeps
  // it at most 3/4 full).
  size_t Probe(DimId dim) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((uint64_t{dim} * kFibonacci) >> shift_);
    while (slots_[i].pos != 0 && slots_[i].dim != dim) i = (i + 1) & mask;
    return i;
  }

  // dim's list, created empty on first use.
  PostingList& Insert(DimId dim) {
    if (!slots_.empty()) {
      const Slot& s = slots_[Probe(dim)];
      if (s.pos != 0) return At(s.pos - 1).list;
    }
    return Create(dim);
  }

  // Adds an empty list for an absent dim, growing the directory and the
  // chunks as needed.
  PostingList& Create(DimId dim);
  // Allocates the directory (first call) or doubles it, re-placing every
  // list in insertion order.
  void Grow();

  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;  // 2^64/φ

  TieredStorageOptions tiered_;
  std::vector<Slot> slots_;                      // power of two, or empty
  unsigned shift_ = 64;                          // 64 − log2(slots_.size())
  std::vector<std::unique_ptr<Entry[]>> chunks_;  // kChunkLists entries each
  size_t size_ = 0;                              // lists created
  // Σ over the lists of memory_bytes() − sizeof(PostingList): what they
  // hold outside their chunk.
  size_t list_bytes_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_POSTING_LIST_H_
