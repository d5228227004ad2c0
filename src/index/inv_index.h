// Batch inverted index with no pruning (INV, §5.1): the batch index of
// index/prefix_index.h with prefix filtering off. Candidate generation
// already accumulates the exact dot product, so verification is a plain
// threshold test.
#ifndef SSSJ_INDEX_INV_INDEX_H_
#define SSSJ_INDEX_INV_INDEX_H_

#include "index/prefix_index.h"

namespace sssj {

using InvIndex = PrefixIndex<InvPolicy>;

}  // namespace sssj

#endif  // SSSJ_INDEX_INV_INDEX_H_
