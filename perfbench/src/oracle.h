// Output check for the ladder benchmark: the exact brute-force oracle,
// cached on disk per stream, and the two comparisons every run makes
// (against the oracle within a relative score tolerance, and between
// rungs bit for bit).
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/similarity.h"
#include "core/stream_item.h"

namespace perfbench {

// FNV-1a over every id, timestamp bit pattern, coordinate and the decay
// parameters: the oracle cache key.
uint64_t StreamFingerprint(const sssj::Stream& stream,
                           const sssj::DecayParams& params);

// Makes sure `cache_path` holds BruteForceStreamJoinSorted(stream, params).
// A missing or stale file is recomputed in a forked child, so the oracle's
// memory never counts towards the benchmark's own peak RSS. Returns an
// empty string on success, else what went wrong.
std::string EnsureOracle(const sssj::Stream& stream,
                         const sssj::DecayParams& params,
                         const std::string& cache_path);

// Reads a file written by EnsureOracle; empty string on success.
std::string LoadOracle(const std::string& cache_path, uint64_t fingerprint,
                       std::vector<sssj::ResultPair>* pairs);

// Sorts by (a, b), the oracle's order.
void SortByIds(std::vector<sssj::ResultPair>* pairs);

// Both inputs sorted by ids. Equal pair sets (ids and timestamps exact),
// dot and sim within `rel_tol` relative. Empty string when they agree,
// else the first difference.
std::string CompareToOracle(const std::vector<sssj::ResultPair>& got,
                            const std::vector<sssj::ResultPair>& oracle,
                            double rel_tol);

// Both inputs sorted by ids. Ids, timestamps and score bits identical.
std::string CompareBitwise(const std::vector<sssj::ResultPair>& got,
                           const std::vector<sssj::ResultPair>& want);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
