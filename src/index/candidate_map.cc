#include "index/candidate_map.h"

namespace sssj {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t c = 16;
  while (c < n) c <<= 1;
  return c;
}
}  // namespace

CandidateMap::CandidateMap(size_t initial_capacity)
    : initial_capacity_(RoundUpPow2(initial_capacity)) {}

void CandidateMap::Reset() {
  ++generation_;
  touched_.clear();
  admitted_ = 0;
  if (generation_ == 0) {  // wrapped: hard-clear all stamps
    for (Slot& s : slots_) s.generation = 0;
    generation_ = 1;
  }
}

void CandidateMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  std::vector<uint32_t> old_touched = std::move(touched_);
  slots_.assign(old.empty() ? initial_capacity_ : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  touched_.clear();
  touched_.reserve(old_touched.size());
  for (uint32_t idx : old_touched) {
    const Slot& s = old[idx];
    if (s.generation != generation_) continue;
    size_t i = s.id & mask;
    while (slots_[i].generation == generation_) i = (i + 1) & mask;
    slots_[i] = s;
    touched_.push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace sssj
