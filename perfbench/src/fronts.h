// The rungs of the layer ladder: one public entry point per layer on the
// push path, each driven by the same closed loop over the same stream.
//
//   index          StreamL2Index::ProcessArrival (STR-L2 only)
//   stream         MakeJoinCore -> JoinCore::Push
//   engine         SssjEngine::Push
//   service        JoinService::Push on one session
//   client.local   ClusterClient::Push, in-process backend
//   client.1w      ClusterClient::Push against a 1-worker Supervisor
//   client.1w.b64  ClusterClient::PushBatch of 64 against the same fleet
//
// All timing happens here, around calls to those public functions; the
// library itself is not instrumented.
#ifndef PERFBENCH_FRONTS_H_
#define PERFBENCH_FRONTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/result.h"
#include "core/stats.h"
#include "core/stream_item.h"

namespace perfbench {

enum class Rung {
  kIndex,
  kStream,
  kEngine,
  kService,
  kClientLocal,
  kCluster,
  kClusterBatch,
};

const char* RungName(Rung rung);

// One workload's generated input, shared by every rung.
struct Input {
  sssj::EngineConfig config;
  sssj::DecayParams params;
  // Generator output with ids 0..n-1: what the engine and the fronts
  // above it receive (they normalize it themselves).
  sssj::Stream raw;
  // The same items normalized exactly as SssjEngine::Push does, for the
  // index and stream rungs, which take unit vectors, and for the oracle.
  sssj::Stream prepared;
  // Items [0, warm) fill the first horizon tau of stream time and are
  // pushed untimed, so timing starts with the index at steady-state size.
  size_t warm = 0;
};

// A span around one front call, child of its pass's span; spans of one
// item share `item` (-1 for the flush).
struct Span {
  Rung rung;
  int64_t item;
  int64_t start_ns;
  int64_t end_ns;
};

struct PassOptions {
  bool keep_spans = false;
  // Time a MemoryBytes() call on every this-many-th timed item (engine
  // rung only; 0 = never). Sampled calls are excluded from the window.
  size_t memory_sample_every = 0;
};

// Everything one pass of one rung over the whole stream observed.
struct PassResult {
  std::string error;         // non-empty when set-up or the flush failed
  int64_t begin_ns = 0;      // the pass span: set-up start to teardown end
  int64_t end_ns = 0;
  double setup_s = 0.0;      // construct the front until ready to push
  double window_s = 0.0;     // timed window: timed pushes plus the flush
  double busy_s = 0.0;       // sum of front-call durations in the window
  size_t timed_items = 0;
  uint64_t attempted = 0;    // front calls (a batch counts its items)
  uint64_t failed = 0;       // items whose call did not return OK
  std::vector<double> call_us;   // one per timed front call
  // One per pair whose later item is timed, in pair-id order, so that
  // passes with the same pairs line up entry by entry.
  std::vector<double> delay_us;
  // The timed window cut into consecutive chunks of kChunkItems timed
  // items (the last one also holds the flush); they sum to window_s.
  std::vector<double> chunk_s;
  std::vector<double> boundary_call_us;  // timed calls that closed a window
  std::vector<double> memory_call_us;    // sampled MemoryBytes() calls
  size_t state_bytes = 0;    // public memory call after the timed pushes
  sssj::RunStats stats;      // deltas over the timed window, where kept
  uint64_t worker_hwm_kb = 0;
  uint64_t restarts = 0;
  // Every pair that reached the benchmark, in arrival order, with the
  // item whose call delivered it (n for the final flush).
  std::vector<sssj::ResultPair> pairs;
  std::vector<size_t> pair_call;
  std::vector<Span> spans;
};

// Items per entry of PassResult::chunk_s.
constexpr size_t kChunkItems = 250;

PassResult RunPass(Rung rung, const Input& input, const PassOptions& options);

// Constructs and tears down the rung's front up to `count` times, for at
// most `max_seconds`; the set-up time of each, in seconds. Empty on
// failure.
std::vector<double> MeasureSetups(Rung rung, const Input& input, int count,
                                  double max_seconds);

// Peak resident set (VmHWM) of a process, in KiB; 0 when unreadable.
uint64_t PeakRssKb(const std::string& pid_or_self);

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_FRONTS_H_
