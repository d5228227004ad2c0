#include "index/batch_index.h"

#include <utility>

namespace sssj {

void DimDirectory::Grow() {
  constexpr size_t kInitialSlots = 64;
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
  shift_ = 64;
  for (size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
  for (const Slot& s : old) {
    if (s.index != 0) slots_[Probe(s.dim)] = s;
  }
}

}  // namespace sssj
