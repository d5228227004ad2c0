// Layer-ladder benchmark for the sssj library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--items <n>] [--data-dir <dir>]
//   perfbench --self-test [--data-dir <dir>]
//
// A closed loop: one producer thread pushes the generated stream and waits
// for each synchronous front call to return. Timestamps are the stream's
// own logical time, and timing starts after the first horizon tau of it.
//
// --trace 0 runs the workload's front rung in repeated passes over the
// stream for --seconds and reports the end-to-end metrics, timings from
// the run's floor (FloorOverPasses), set-up as a median. --trace 1 runs
// every rung of the ladder (fronts.h) in interleaved rounds, plus the
// wire and channel probes, and reports the per-layer metrics; its spans
// are written to <data-dir>/trace-<workload>-<seed>.tsv when it ends.
//
// Every pass's pairs are checked against BruteForceStreamJoinSorted on the
// same stream (scores within 1e-12 relative), and every pass and rung
// against the first bit for bit. The human-readable lines come first; the
// last line of stdout is one JSON object. Exit code 0 iff the output
// checks passed and no front call failed.
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cluster/channel.h"
#include "cluster/wire.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "fronts.h"
#include "oracle.h"

namespace perfbench {
namespace {

constexpr double kScoreTolerance = 1e-12;
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 50;
// Set-up is timed on its own this many times after every pass (for at most
// kSetupSeconds each time), so that its median spans the whole run rather
// than one moment of the host.
constexpr int kSetupsPerPass = 11;
constexpr double kSetupSeconds = 0.2;
constexpr size_t kMemorySampleEvery = 64;
constexpr size_t kRoundtrips = 4000;
// The traced run repeats the cheap bottom rungs (index, stream, engine)
// this many times per round, interleaved, so the small self times between
// them rest on medians rather than on single passes.
constexpr int kBottomRepeats = 3;
constexpr int kWireReps = 3;

struct Workload {
  const char* name;
  sssj::DatasetProfile profile;
  uint64_t items;
  sssj::Framework framework;
  double theta;
  double lambda;
  Rung front;
  std::vector<Rung> ladder;
};

// The workloads of BENCHMARK.json. Stream lengths are chosen so that one
// pass takes one to three seconds and the oracle a few seconds on a
// 4-thread x86-64 box; every rung runs on every workload in the traced
// run, the index rung only where the scheme is STR-L2.
const std::vector<Workload>& Workloads() {
  using sssj::DatasetProfile;
  using sssj::Framework;
  static const std::vector<Workload> kWorkloads = {
      {"str-longhorizon", DatasetProfile::kRcv1, 12000, Framework::kStreaming,
       0.5, 1e-3, Rung::kEngine,
       {Rung::kIndex, Rung::kStream, Rung::kEngine, Rung::kService,
        Rung::kClientLocal, Rung::kCluster, Rung::kClusterBatch}},
      {"mb-bursty", DatasetProfile::kTweets, 40000, Framework::kMiniBatch, 0.5,
       1e-3, Rung::kService,
       {Rung::kStream, Rung::kEngine, Rung::kService, Rung::kClientLocal,
        Rung::kCluster, Rung::kClusterBatch}},
      {"cluster-push", DatasetProfile::kRcv1, 3000, Framework::kStreaming, 0.7,
       1e-2, Rung::kCluster,
       {Rung::kIndex, Rung::kStream, Rung::kEngine, Rung::kService,
        Rung::kClientLocal, Rung::kCluster, Rung::kClusterBatch}},
  };
  return kWorkloads;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Nearest-rank percentile over sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Count(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.error.empty()) Fail(r.error);
  }
};

// The highest percentile of a fixed ladder that leaves at least 10
// samples beyond it among `count`.
double TailPercentile(size_t count) {
  for (double p : {99.99, 99.97, 99.9, 99.7, 99.0, 97.0, 95.0, 90.0}) {
    if (static_cast<double>(count) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

// The run's floor. The host this runs on shares its machine, and its speed
// swings by up to a third within a tenth of a second. Each pass does
// exactly the same work in the same order, so entry k of every pass's
// samples (a call, a pair's delay, a chunk of the window) measures the same
// thing, and the smallest of them is the one the host disturbed least.
// Empty when the passes' sample counts differ.
std::vector<double> FloorOverPasses(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> floor = passes.front();
  for (const std::vector<double>& pass : passes) {
    if (pass.size() != floor.size()) return {};
    for (size_t k = 0; k < floor.size(); ++k) {
      floor[k] = std::min(floor[k], pass[k]);
    }
  }
  return floor;
}

// `<name>_p50_us` and `<name>_tail_us` of the run's floor (FloorOverPasses).
void AddLatency(const std::string& name,
                const std::vector<std::vector<double>>& passes,
                Outcome* out) {
  std::vector<double> floor = FloorOverPasses(passes);
  if (floor.empty()) {
    out->Fail(name + ": passes differ in their sample counts");
    return;
  }
  std::sort(floor.begin(), floor.end());
  const double p = TailPercentile(floor.size());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(floor.size())));
  char note[128];
  std::snprintf(note, sizeof(note), "floor of %zu passes, %zu samples each",
                passes.size(), floor.size());
  out->metrics.push_back(
      {name + "_p50_us", Percentile(floor, 50.0), "us", note});
  std::snprintf(note, sizeof(note), "p%g of the floor (%zu samples beyond)", p,
                floor.size() - std::min(rank, floor.size()));
  out->metrics.push_back({name + "_tail_us", Percentile(floor, p), "us", note});
}

sssj::Status MakeInput(const Workload& w, uint64_t seed, uint64_t items,
                       Input* in) {
  in->config.framework = w.framework;
  in->config.index = sssj::IndexScheme::kL2;
  in->config.theta = w.theta;
  in->config.lambda = w.lambda;
  if (!sssj::DecayParams::Make(w.theta, w.lambda, &in->params)) {
    return sssj::Status::InvalidArgument("bad decay parameters");
  }
  sssj::CorpusSpec spec = sssj::MakeProfileSpec(w.profile, 1.0, seed);
  spec.num_vectors = items;
  in->raw = sssj::CorpusGenerator(spec).Generate();
  in->prepared.clear();
  in->prepared.reserve(in->raw.size());
  for (size_t i = 0; i < in->raw.size(); ++i) {
    in->raw[i].id = i;
    sssj::StreamItem item = in->raw[i];
    item.vec.Normalize();
    if (item.vec.empty() || !item.vec.IsUnit()) {
      return sssj::Status::InvalidArgument("generated an unusable vector");
    }
    in->prepared.push_back(std::move(item));
  }
  in->warm = 0;
  while (in->warm < in->raw.size() &&
         in->raw[in->warm].ts - in->raw[0].ts < in->params.tau) {
    ++in->warm;
  }
  if (in->warm + 1 >= in->raw.size()) {
    return sssj::Status::InvalidArgument(
        "stream too short: it ends within its first horizon");
  }
  return sssj::Status::Ok();
}

// Per-item front-call time of a pass, in microseconds.
double UsPerItem(const PassResult& r) {
  return r.busy_s * 1e6 / static_cast<double>(r.timed_items);
}

double ItemsPerSecond(const PassResult& r) {
  return static_cast<double>(r.timed_items) / r.window_s;
}

// Checks one pass's pairs: against the first pass bit for bit, or, for
// the first pass, becomes the reference. Returns the mismatch, if any.
std::string CheckAgainstReference(PassResult* r,
                                  std::vector<sssj::ResultPair>* reference,
                                  bool* have_reference) {
  SortByIds(&r->pairs);
  if (!*have_reference) {
    *reference = std::move(r->pairs);
    *have_reference = true;
    return "";
  }
  std::string diff = CompareBitwise(r->pairs, *reference);
  r->pairs.clear();
  r->pairs.shrink_to_fit();
  return diff;
}

std::string OraclePath(const std::string& data_dir, const Workload& w,
                       uint64_t seed, size_t items) {
  return data_dir + "/oracle-" + w.name + "-" + std::to_string(seed) + "-" +
         std::to_string(items) + ".bin";
}

void CheckOracle(const Input& in, const std::string& oracle_path,
                 const std::vector<sssj::ResultPair>& reference,
                 Outcome* out) {
  std::vector<sssj::ResultPair> oracle;
  const std::string error = LoadOracle(
      oracle_path, StreamFingerprint(in.prepared, in.params), &oracle);
  if (!error.empty()) {
    out->Fail("oracle: " + error);
    return;
  }
  const std::string diff = CompareToOracle(reference, oracle, kScoreTolerance);
  if (!diff.empty()) out->Fail("pairs differ from the oracle: " + diff);
  if (oracle.empty()) out->Fail("the oracle found no pairs; nothing checked");
}

// ---- --trace 0: the end-to-end run ----

void RunEndToEnd(const Workload& w, const Input& in, double seconds,
                 const std::string& oracle_path, Outcome* out) {
  std::vector<std::vector<double>> call_us;  // per pass
  std::vector<std::vector<double>> delay_us;
  std::vector<std::vector<double>> chunk_s;
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<sssj::ResultPair> reference;
  bool have_reference = false;
  size_t state_bytes = 0;
  uint64_t peak_kb = 0;
  uint64_t restarts = 0;
  size_t pairs_per_pass = 0;

  const int64_t start = NowNs();
  int passes = 0;
  while (passes < kMinPasses ||
         (passes < kMaxPasses &&
          static_cast<double>(NowNs() - start) * 1e-9 < seconds)) {
    PassResult r = RunPass(w.front, in, PassOptions{});
    ++passes;
    out->Count(r);
    if (!r.error.empty()) return;
    rates.push_back(ItemsPerSecond(r));
    call_us.push_back(std::move(r.call_us));
    delay_us.push_back(std::move(r.delay_us));
    chunk_s.push_back(std::move(r.chunk_s));
    state_bytes = r.state_bytes;
    // Read after the first pass, before the pooled samples of later passes
    // grow the heap, so the figure does not depend on how many passes fit.
    if (passes == 1) peak_kb = PeakRssKb("self") + r.worker_hwm_kb;
    restarts += r.restarts;
    pairs_per_pass = r.pairs.size();
    const std::string diff = CheckAgainstReference(&r, &reference,
                                                   &have_reference);
    if (!diff.empty()) out->Fail("pass " + std::to_string(passes) + ": " + diff);
    const std::vector<double> more =
        MeasureSetups(w.front, in, kSetupsPerPass, kSetupSeconds);
    if (more.empty()) {
      out->Fail(std::string(RungName(w.front)) + " set-up failed");
      return;
    }
    setups.insert(setups.end(), more.begin(), more.end());
  }
  CheckOracle(in, oracle_path, reference, out);
  if (restarts != 0) out->Fail("the supervisor restarted a worker");

  std::vector<Metric>& m = out->metrics;
  const std::vector<double> chunk_floor = FloorOverPasses(chunk_s);
  double floor_window_s = 0.0;
  for (double s : chunk_floor) floor_window_s += s;
  if (chunk_floor.empty()) out->Fail("passes differ in their chunk counts");
  char note[128];
  std::snprintf(note, sizeof(note),
                "floor of %d passes per %zu-item chunk; passes: median %.6g, "
                "min %.6g, max %.6g",
                passes, kChunkItems, Median(rates),
                *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()));
  const size_t timed_items = in.raw.size() - in.warm;
  m.push_back({"items_per_s",
               floor_window_s > 0
                   ? static_cast<double>(timed_items) / floor_window_s
                   : 0.0,
               "1/s", note});
  AddLatency("call", call_us, out);
  AddLatency("result_delay", delay_us, out);
  std::snprintf(note, sizeof(note), "median of %zu set-ups", setups.size());
  m.push_back({"setup_s", Median(setups), "s", note});
  m.push_back({"state_mb", static_cast<double>(state_bytes) / (1 << 20),
               "MiB", "public memory call after the timed window"});
  m.push_back({"peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MiB",
               w.front == Rung::kCluster
                   ? "benchmark + worker VmHWM after the first pass"
                   : "benchmark VmHWM after the first pass"});
  m.push_back({"error_rate",
               out->attempted == 0 ? 0.0
                                   : static_cast<double>(out->failed) /
                                         static_cast<double>(out->attempted),
               "ratio", "non-OK front calls / attempted"});
  m.push_back({"pairs", static_cast<double>(pairs_per_pass), "count",
               "emitted per pass"});
}

// ---- --trace 1: the ladder ----

struct RungRecord {
  std::vector<double> us_per_item;
  std::vector<double> rates;
  std::vector<double> boundary_us;
  std::vector<double> index_us_per_item;  // MB: window-closing calls
  std::vector<double> memory_us;
  PassResult first;  // keeps stats and per-call pairs of the first pass
  uint64_t restarts = 0;
};

// Encode/decode cost of the frames one push and its reply would use.
struct WireCosts {
  double encode_push_us = 0;
  double decode_push_us = 0;
  double encode_reply_us = 0;
  double decode_reply_us = 0;
  double request_bytes = 0;
  std::vector<std::string> push_payloads;
};

template <typename F>
double TimeLoopUs(size_t count, F body) {
  std::vector<double> reps;
  for (int rep = 0; rep < kWireReps; ++rep) {
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < count; ++k) body(k);
    reps.push_back(static_cast<double>(NowNs() - t0) / 1e3 /
                   static_cast<double>(count));
  }
  return Median(reps);
}

WireCosts MeasureWire(const Input& in, const PassResult& engine_pass,
                      Outcome* out) {
  namespace wire = sssj::cluster;
  const size_t n = in.raw.size();
  const size_t timed = n - in.warm;
  std::vector<wire::PushRequest> requests(timed);
  for (size_t k = 0; k < timed; ++k) {
    requests[k].name = "bench";
    requests[k].ts = in.raw[in.warm + k].ts;
    requests[k].vec = in.raw[in.warm + k].vec;
  }
  std::vector<wire::Reply> replies(timed);
  for (size_t p = 0; p < engine_pass.pairs.size(); ++p) {
    const size_t call = engine_pass.pair_call[p];
    if (call >= in.warm && call < n) {
      replies[call - in.warm].pairs.push_back(engine_pass.pairs[p]);
    }
  }
  WireCosts c;
  c.push_payloads.resize(timed);
  std::vector<std::string> reply_payloads(timed);
  wire::PushRequest decoded_push;
  wire::Reply decoded_reply;
  bool ok = true;
  c.encode_push_us = TimeLoopUs(timed, [&](size_t k) {
    c.push_payloads[k] = wire::EncodePush(requests[k]);
  });
  c.decode_push_us = TimeLoopUs(timed, [&](size_t k) {
    ok &= wire::DecodePush(c.push_payloads[k], &decoded_push).ok();
  });
  c.encode_reply_us = TimeLoopUs(timed, [&](size_t k) {
    reply_payloads[k] = wire::EncodeReply(replies[k]);
  });
  c.decode_reply_us = TimeLoopUs(timed, [&](size_t k) {
    ok &= wire::DecodeReply(reply_payloads[k], &decoded_reply).ok();
  });
  double bytes = 0;
  for (const std::string& p : c.push_payloads) {
    bytes += static_cast<double>(p.size() + wire::kFrameHeaderSize);
  }
  c.request_bytes = bytes / static_cast<double>(timed);
  if (!ok) out->Fail("wire: a frame this benchmark encoded did not decode");
  return c;
}

// Mean time for a push-sized frame to go over a socketpair to a forked
// echo peer and back.
double MeasureChannelRoundtrip(const std::vector<std::string>& payloads,
                               Outcome* out) {
  namespace wire = sssj::cluster;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    out->Fail(std::string("socketpair: ") + std::strerror(errno));
    return 0.0;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    out->Fail(std::string("fork: ") + std::strerror(errno));
    ::close(fds[0]);
    ::close(fds[1]);
    return 0.0;
  }
  if (pid == 0) {
    ::close(fds[0]);
    wire::FrameChannel peer(fds[1]);
    wire::FrameType type;
    std::string payload;
    while (peer.Recv(&type, &payload).ok() &&
           type != wire::FrameType::kShutdown) {
      if (!peer.Send(type, payload).ok()) break;
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  double mean_us = 0.0;
  {
    wire::FrameChannel channel(fds[0]);
    const size_t count = std::min(kRoundtrips, payloads.size());
    wire::FrameType type;
    std::string echo;
    bool ok = true;
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < count && ok; ++k) {
      ok = channel.Send(wire::FrameType::kPush, payloads[k]).ok() &&
           channel.Recv(&type, &echo).ok() && echo == payloads[k];
    }
    mean_us = static_cast<double>(NowNs() - t0) / 1e3 /
              static_cast<double>(std::max<size_t>(count, 1));
    if (!ok) out->Fail("channel: the echo peer did not return the frame");
    static_cast<void>(channel.Send(wire::FrameType::kShutdown, ""));
  }
  ::waitpid(pid, nullptr, 0);
  return mean_us;
}

void WriteSpans(const std::string& path, const std::vector<PassResult>& passes,
                Outcome* out) {
  std::ofstream os(path, std::ios::trunc);
  os << "span\tparent\tname\titem\tstart_ns\tend_ns\n";
  int64_t next = 0;
  for (const PassResult& r : passes) {
    if (r.spans.empty()) continue;
    const int64_t parent = next++;
    os << parent << "\t-1\t" << RungName(r.spans[0].rung) << ".pass\t-1\t"
       << r.begin_ns << "\t" << r.end_ns << "\n";
    for (const Span& s : r.spans) {
      os << next++ << "\t" << parent << "\t" << RungName(s.rung) << "\t"
         << s.item << "\t" << s.start_ns << "\t" << s.end_ns << "\n";
    }
  }
  if (!os.flush()) out->Fail("cannot write " + path);
}

void RunLadder(const Workload& w, const Input& in, double seconds,
               const std::string& oracle_path, const std::string& trace_path,
               Outcome* out) {
  std::map<Rung, RungRecord> rec;
  std::vector<double> untraced_rates;
  std::vector<sssj::ResultPair> reference;
  bool have_reference = false;
  std::vector<PassResult> kept;  // spans of every traced pass, written last

  std::vector<Rung> sequence;
  const auto bottom = [](Rung rung) {
    return rung == Rung::kIndex || rung == Rung::kStream ||
           rung == Rung::kEngine;
  };
  for (int k = 0; k < kBottomRepeats; ++k) {
    for (Rung rung : w.ladder) {
      if (bottom(rung)) sequence.push_back(rung);
    }
  }
  for (Rung rung : w.ladder) {
    if (!bottom(rung)) sequence.push_back(rung);
  }

  const int64_t start = NowNs();
  int round = 0;
  while (round < 1 || (round < kMaxPasses &&
                       static_cast<double>(NowNs() - start) * 1e-9 < seconds)) {
    for (Rung rung : sequence) {
      PassOptions options;
      options.keep_spans = true;
      if (rung == Rung::kEngine) options.memory_sample_every = kMemorySampleEvery;
      PassResult r = RunPass(rung, in, options);
      out->Count(r);
      if (!r.error.empty()) return;
      RungRecord& rr = rec[rung];
      rr.us_per_item.push_back(UsPerItem(r));
      rr.rates.push_back(ItemsPerSecond(r));
      rr.boundary_us.insert(rr.boundary_us.end(), r.boundary_call_us.begin(),
                            r.boundary_call_us.end());
      double closing = 0.0;
      for (double us : r.boundary_call_us) closing += us;
      rr.index_us_per_item.push_back(closing /
                                     static_cast<double>(r.timed_items));
      rr.memory_us.insert(rr.memory_us.end(), r.memory_call_us.begin(),
                          r.memory_call_us.end());
      rr.restarts += r.restarts;
      PassResult spans_only;
      spans_only.begin_ns = r.begin_ns;
      spans_only.end_ns = r.end_ns;
      spans_only.spans = std::move(r.spans);
      kept.push_back(std::move(spans_only));
      // The first pass of each rung, copied before the check consumes its pairs.
      if (rr.us_per_item.size() == 1) rr.first = r;
      const std::string diff =
          CheckAgainstReference(&r, &reference, &have_reference);
      if (!diff.empty()) {
        out->Fail(std::string(RungName(rung)) + " round " +
                  std::to_string(round) + " differs from " +
                  RungName(sequence[0]) + ": " + diff);
      }
    }
    // The same front untraced, for trace.overhead.
    PassResult plain = RunPass(w.front, in, PassOptions{});
    out->Count(plain);
    if (!plain.error.empty()) return;
    untraced_rates.push_back(ItemsPerSecond(plain));
    const std::string diff =
        CheckAgainstReference(&plain, &reference, &have_reference);
    if (!diff.empty()) out->Fail("untraced front pass: " + diff);
    ++round;
  }
  CheckOracle(in, oracle_path, reference, out);

  const WireCosts wire = MeasureWire(in, rec[Rung::kEngine].first, out);
  const double channel_us = MeasureChannelRoundtrip(wire.push_payloads, out);

  const auto us = [&](Rung rung) { return Median(rec[rung].us_per_item); };
  const bool str = w.framework == sssj::Framework::kStreaming;
  const double index_us =
      str ? us(Rung::kIndex) : Median(rec[Rung::kStream].index_us_per_item);
  const sssj::RunStats& s = rec[Rung::kEngine].first.stats;
  const double items =
      static_cast<double>(rec[Rung::kEngine].first.timed_items);
  const auto per_item = [items](uint64_t v) {
    return static_cast<double>(v) / items;
  };
  const double wire_us = wire.encode_push_us + wire.decode_push_us +
                         wire.encode_reply_us + wire.decode_reply_us;
  uint64_t restarts = 0;
  for (const auto& [rung, rr] : rec) restarts += rr.restarts;
  if (restarts != 0) out->Fail("the supervisor restarted a worker");

  std::vector<Metric>& m = out->metrics;
  const char* rung_note = "median over passes of per-item call time";
  m.push_back({"index.arrival_us", index_us, "us",
               str ? "StreamL2Index::ProcessArrival"
                   : "MB window-closing calls, amortized per item"});
  m.push_back({"index.entries_traversed_per_item",
               per_item(s.entries_traversed), "count", "engine stats()"});
  m.push_back({"index.candidates_per_item", per_item(s.candidates_generated),
               "count", "engine stats()"});
  m.push_back({"index.full_dots_per_item", per_item(s.full_dots), "count",
               "engine stats()"});
  m.push_back({"index.verify_yield",
               s.candidates_generated == 0
                   ? 0.0
                   : static_cast<double>(s.pairs_emitted) /
                         static_cast<double>(s.candidates_generated),
               "ratio", "pairs_emitted / candidates_generated"});
  m.push_back({"index.entries_indexed_per_item", per_item(s.entries_indexed),
               "count", "engine stats()"});
  m.push_back({"index.entries_pruned_per_item", per_item(s.entries_pruned),
               "count", "engine stats()"});
  m.push_back({"index.rebuilds", static_cast<double>(s.index_rebuilds),
               "count", "MB windows indexed in the timed window"});
  m.push_back({"stream.window_close_us", Mean(rec[Rung::kStream].boundary_us),
               "us",
               str ? "every STR call ends a reporting unit"
                   : "mean of calls that closed a window"});
  m.push_back({"stream.self_us_per_item", us(Rung::kStream) - index_us, "us",
               "stream - index"});
  m.push_back({"engine.self_us_per_item", us(Rung::kEngine) - us(Rung::kStream),
               "us", "engine - stream"});
  m.push_back({"engine.memory_bytes_call_us", Mean(rec[Rung::kEngine].memory_us),
               "us", "MemoryBytes() every 64th item"});
  m.push_back({"service.self_us_per_item",
               us(Rung::kService) - us(Rung::kEngine), "us",
               "service - engine"});
  m.push_back({"client.local.self_us_per_item",
               us(Rung::kClientLocal) - us(Rung::kService), "us",
               "client.local - service"});
  m.push_back({"wire.encode_push_us", wire.encode_push_us, "us", "EncodePush"});
  m.push_back({"wire.decode_push_us", wire.decode_push_us, "us", "DecodePush"});
  m.push_back({"wire.encode_reply_us", wire.encode_reply_us, "us",
               "EncodeReply, engine's per-call pairs"});
  m.push_back({"wire.decode_reply_us", wire.decode_reply_us, "us",
               "DecodeReply"});
  m.push_back({"wire.request_bytes_per_item", wire.request_bytes, "bytes",
               "push frame incl. header"});
  m.push_back({"channel.roundtrip_us", channel_us, "us",
               "FrameChannel echo over a socketpair"});
  m.push_back({"supervisor.self_us_per_item",
               us(Rung::kCluster) - us(Rung::kClientLocal) - wire_us -
                   channel_us,
               "us", "client.1w - client.local - wire - channel"});
  m.push_back({"supervisor.restarts", static_cast<double>(restarts), "count",
               "Supervisor::restarts()"});
  m.push_back({"ratio.service_over_engine",
               us(Rung::kService) / us(Rung::kEngine), "ratio",
               "per-item time"});
  m.push_back({"ratio.cluster_over_local",
               us(Rung::kCluster) / us(Rung::kClientLocal), "ratio",
               "per-item time"});
  m.push_back({"ratio.batch64_over_push",
               us(Rung::kClusterBatch) / us(Rung::kCluster), "ratio",
               "per-item time"});
  m.push_back({"trace.overhead",
               Median(untraced_rates) / Median(rec[w.front].rates), "ratio",
               "untraced / traced items_per_s of the front rung"});
  for (Rung rung : w.ladder) {
    m.push_back({std::string("rung.") + RungName(rung) + ".us_per_item",
                 us(rung), "us", rung_note});
  }

  WriteSpans(trace_path, kept, out);
}

void Print(const Outcome& out, const std::string& header) {
  std::printf("%s\n", header.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& p : out.problems) std::printf("  FAIL: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t k = 0; k < out.metrics.size(); ++k) {
    const Metric& m = out.metrics[k];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int RunWorkload(const Workload& w, uint64_t seed, double seconds, bool trace,
                uint64_t items, const std::string& data_dir, Outcome* out) {
  Input in;
  const sssj::Status status = MakeInput(w, seed, items, &in);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", w.name, status.ToString().c_str());
    return 2;
  }
  const std::string oracle_path = OraclePath(data_dir, w, seed, items);
  const std::string error = EnsureOracle(in.prepared, in.params, oracle_path);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (trace) {
    RunLadder(w, in, seconds, oracle_path,
              data_dir + "/trace-" + w.name + "-" + std::to_string(seed) +
                  ".tsv",
              out);
  } else {
    RunEndToEnd(w, in, seconds, oracle_path, out);
  }
  if (out->failed != 0) out->Fail("front calls failed");
  char header[160];
  std::snprintf(header, sizeof(header),
                "%s seed=%llu items=%zu warm=%zu (tau=%.1f) trace=%d",
                w.name, static_cast<unsigned long long>(seed), in.raw.size(),
                in.warm, in.params.tau, trace ? 1 : 0);
  Print(*out, header);
  return out->correct ? 0 : 1;
}

// ---- --self-test ----

// The output check must catch one dropped pair and one perturbed score,
// and a clean tiny run of every workload must pass it.
int SelfTest(const std::string& data_dir) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const Workload& w : Workloads()) {
    const uint64_t items =
        w.framework == sssj::Framework::kMiniBatch ? 6000 : 1500;
    Input in;
    expect(MakeInput(w, 1, items, &in).ok(), std::string(w.name) + ": input");
    const std::string path = OraclePath(data_dir, w, 1, items);
    expect(EnsureOracle(in.prepared, in.params, path).empty(),
           std::string(w.name) + ": oracle");
    std::vector<sssj::ResultPair> oracle;
    expect(LoadOracle(path, StreamFingerprint(in.prepared, in.params), &oracle)
               .empty(),
           std::string(w.name) + ": oracle loads");
    PassResult r = RunPass(w.front, in, PassOptions{});
    expect(r.error.empty() && r.failed == 0 && r.restarts == 0,
           std::string(w.name) + ": front pass has no errors or restarts");
    SortByIds(&r.pairs);
    expect(!oracle.empty(), std::string(w.name) + ": oracle has pairs");
    expect(CompareToOracle(r.pairs, oracle, kScoreTolerance).empty(),
           std::string(w.name) + ": clean run matches the oracle");
    if (r.pairs.empty()) continue;
    std::vector<sssj::ResultPair> dropped = r.pairs;
    dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 2));
    expect(!CompareToOracle(dropped, oracle, kScoreTolerance).empty(),
           std::string(w.name) + ": one dropped pair is caught");
    std::vector<sssj::ResultPair> perturbed = r.pairs;
    perturbed[perturbed.size() / 3].sim *= 1.0 + 1e-9;
    expect(!CompareToOracle(perturbed, oracle, kScoreTolerance).empty(),
           std::string(w.name) + ": one perturbed score is caught");
    std::vector<sssj::ResultPair> ulp = r.pairs;
    ulp[0].dot = std::nextafter(ulp[0].dot, 2.0);
    expect(!CompareBitwise(ulp, r.pairs).empty(),
           std::string(w.name) + ": a one-ulp difference between rungs is caught");
    expect(CompareBitwise(r.pairs, r.pairs).empty(),
           std::string(w.name) + ": identical rungs agree");
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--items <n>] [--data-dir <dir>]\n"
               "       perfbench --self-test [--data-dir <dir>]\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      self_test = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::string data_dir =
      args.count("data-dir") ? args["data-dir"] : ".bench_build/perfbench";
  if (self_test) return SelfTest(data_dir);
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(required)) return Usage();
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const uint64_t items = args.count("items")
                             ? std::strtoull(args["items"].c_str(), nullptr, 10)
                             : workload->items;
  if (*end != '\0' || !(seconds > 0) || items == 0 ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    return Usage();
  }
  Outcome out;
  return RunWorkload(*workload, seed, seconds, args["trace"] == "1", items,
                     data_dir, &out);
}
