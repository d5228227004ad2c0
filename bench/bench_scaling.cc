// Scaling: running time vs stream length at a fixed horizon. The crux of
// the paper's scalability argument (§7.1 Q1) is that STR's per-arrival
// cost depends on the horizon, not on the stream length — so total time
// grows linearly in n and the method "is able to run on all datasets",
// while MB's window-rebuild overhead accumulates. This bench sweeps n at
// fixed (θ, λ) and prints time and throughput for STR-L2, STR-INV and
// the four MB schemes. Every timed table except the tenancy sweep runs
// each cell kReps times, interleaved (all cells of a round, then the next
// round), so host drift hits every cell alike, and reports the median
// with min and max; an MB cell of the scaling table repeats its join for
// at least kMinMbCellSeconds and reports the time per pass.
// Everything measured is also written as machine-readable JSON to
// --json-out (default BENCH_scaling.json; empty string disables).
//
// A second table sweeps the MiniBatch window-close fan-out's thread count
// (--mb-thread-list, default 1,2,4,8; --mb-scale) on the dense
// WebSpam-like profile, where per-window query cost dominates, and
// reports throughput and speedup over the sequential num_threads=1
// baseline; MB output is bit-identical across thread counts, so the
// pairs column doubles as a determinism check. A third sweeps JoinService
// tenancy (--session-list, default 1,2,4,8): K concurrent sessions each
// fed the full stream from its own thread, so the per-session throughput
// column is the multi-tenant overhead. Skip all of them with --no-threads.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench_common/bench_json.h"
#include "cluster/supervisor.h"
#include "core/join_service.h"
#include "util/timer.h"

namespace sssj {
namespace {

// The compiler that built this binary, recorded with every baseline.
constexpr const char* kCompiler =
#if defined(__clang__)
    "clang " __clang_version__;
#elif defined(__GNUC__)
    "gcc " __VERSION__;
#else
    "unknown";
#endif

// Repetitions of every timed cell; the tables report median, min, max.
constexpr int kReps = 3;

// An MB cell of the scaling table repeats its join until it has run this
// long and reports the mean time per pass. One MB pass over the shorter
// streams lasts 2–100 ms, and medians of such single-pass cells spread by
// up to 1.9x between back-to-back runs of one binary.
constexpr double kMinMbCellSeconds = 1.0;

RunResult RunMbCell(const Stream& stream, const RunConfig& cfg) {
  RunResult r = RunJoin(stream, cfg);
  double total = r.seconds;
  int passes = 1;
  while (total < kMinMbCellSeconds) {
    r = RunJoin(stream, cfg);
    total += r.seconds;
    ++passes;
  }
  r.seconds = total / passes;
  return r;
}

struct RepTimes {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

RepTimes Summarize(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return {seconds[seconds.size() / 2], seconds.front(), seconds.back()};
}

// One thread-count sweep table for MB-L2 over `stream`: runs the whole
// stream kReps times per thread count, interleaved, and reports the
// median throughput and speedup. The speedup column is always relative to
// a measured num_threads=1 run, even when 1 is not in `thread_list`.
JsonValue PrintThreadSweep(const Stream& stream, double theta, double lambda,
                           const std::vector<double>& thread_list, bool tsv,
                           const std::string& caption) {
  const auto run = [&](int threads, uint64_t* pairs, uint64_t* mem) {
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2;
    cfg.theta = theta;
    cfg.lambda = lambda;
    cfg.num_threads = threads;
    CountingSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    Timer timer;
    engine->PushBatch(stream);
    engine->Flush();
    *pairs = sink.count();
    *mem = engine->MemoryBytes();
    return timer.ElapsedSeconds();
  };
  // Slot 0 is the num_threads=1 baseline; a 1 in the list reuses it.
  std::vector<int> threads = {1};
  std::vector<size_t> shown;  // slots to print, in list order
  for (double threads_d : thread_list) {
    const int t = static_cast<int>(threads_d);
    if (t < 1) continue;
    shown.push_back(t == 1 ? 0 : threads.size());
    if (t > 1) threads.push_back(t);
  }
  std::vector<std::vector<double>> seconds(threads.size());
  std::vector<uint64_t> pairs(threads.size()), mem(threads.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < threads.size(); ++i) {
      seconds[i].push_back(run(threads[i], &pairs[i], &mem[i]));
    }
  }
  const RepTimes baseline = Summarize(seconds[0]);

  TablePrinter table({"threads", "time(s)", "min", "max", "kvec/s", "pairs",
                      "speedup", "mem(MB)"},
                     tsv);
  JsonValue rows = JsonValue::Array();
  const auto add_row = [&](size_t i) {
    const RepTimes t = Summarize(seconds[i]);
    const double kvec = stream.size() / t.median / 1000.0;
    const double speedup = baseline.median / t.median;
    table.AddRow({std::to_string(threads[i]), FormatDouble(t.median, 3),
                  FormatDouble(t.min, 3), FormatDouble(t.max, 3),
                  FormatDouble(kvec, 1), std::to_string(pairs[i]),
                  FormatDouble(speedup, 2) + "x",
                  FormatDouble(mem[i] / (1024.0 * 1024.0), 2)});
    rows.Push(JsonValue::Object()
                  .Set("threads", static_cast<uint64_t>(threads[i]))
                  .Set("seconds", t.median)
                  .Set("seconds_min", t.min)
                  .Set("seconds_max", t.max)
                  .Set("kvec_per_s", kvec)
                  .Set("pairs", pairs[i])
                  .Set("speedup", speedup)
                  .Set("memory_bytes", mem[i]));
  };
  for (size_t i : shown) add_row(i);
  std::cout << caption;
  table.Print(std::cout);
  return JsonValue::Object()
      .Set("n", static_cast<uint64_t>(stream.size()))
      .Set("rows", std::move(rows));
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto args = bench::ParseCommon(flags, /*default_scale=*/1.0);
  const double theta = flags.GetDouble("theta", 0.7);
  const double lambda = flags.GetDouble("lambda", 0.01);
  const std::vector<double> scales =
      flags.GetDoubleList("scale-list", {0.25, 0.5, 1.0, 2.0, 4.0});
  const std::string json_out =
      flags.GetString("json-out", "BENCH_scaling.json");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "scaling")
      .Set("theta", theta)
      .Set("lambda", lambda)
      .Set("seed", args.seed)
      .Set("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Set("compiler", kCompiler)
      .Set("reps", static_cast<uint64_t>(kReps));
  JsonValue scaling_rows = JsonValue::Array();
  const auto write_doc = [&](JsonValue rows) {
    doc.Set("scaling", std::move(rows));
    if (json_out.empty()) return;
    const Status status = WriteJsonFile(doc, json_out);
    if (!status.ok()) {
      std::cerr << "warning: " << status.ToString() << "\n";
    } else {
      std::cout << "\nwrote " << json_out << "\n";
    }
  };

  // Every variant runs once per kernel path; the kernel column turns the
  // scaling table into a scalar-vs-SIMD comparison at each stream length.
  const KernelMode kernel_modes[] = {KernelMode::kScalar, KernelMode::kSimd};
  TablePrinter table({"n", "variant", "kernel", "time(s)", "min", "max",
                      "kvec/s", "pairs", "peak_entries", "mem(MB)"},
                     args.tsv);
  struct Variant {
    const char* label;
    Framework fw;
    IndexScheme ix;
  };
  const Variant variants[] = {
      {"STR-L2", Framework::kStreaming, IndexScheme::kL2},
      {"STR-INV", Framework::kStreaming, IndexScheme::kInv},
      {"MB-L2", Framework::kMiniBatch, IndexScheme::kL2},
      {"MB-L2AP", Framework::kMiniBatch, IndexScheme::kL2ap},
      {"MB-AP", Framework::kMiniBatch, IndexScheme::kAp},
      {"MB-INV", Framework::kMiniBatch, IndexScheme::kInv},
  };
  for (double scale : scales) {
    const Stream stream =
        GenerateProfile(DatasetProfile::kRcv1, scale, args.seed);
    struct Cell {
      const Variant* variant;
      KernelMode kernel;
      std::vector<double> seconds;
      RunResult last;  // counts and bytes are identical on every rep
    };
    std::vector<Cell> cells;
    for (const Variant& v : variants) {
      for (KernelMode kernel : kernel_modes) {
        cells.push_back({&v, kernel, {}, {}});
      }
    }
    for (int rep = 0; rep < kReps; ++rep) {
      for (Cell& cell : cells) {
        RunConfig cfg;
        cfg.framework = cell.variant->fw;
        cfg.index = cell.variant->ix;
        cfg.theta = theta;
        cfg.lambda = lambda;
        cfg.kernel = cell.kernel;
        cell.last = cfg.framework == Framework::kMiniBatch
                        ? RunMbCell(stream, cfg)
                        : RunJoin(stream, cfg);
        cell.seconds.push_back(cell.last.seconds);
      }
    }
    for (const Cell& cell : cells) {
      const RepTimes t = Summarize(cell.seconds);
      const RunResult& r = cell.last;
      const double kvec = stream.size() / t.median / 1000.0;
      table.AddRow({std::to_string(stream.size()), cell.variant->label,
                    ToString(cell.kernel), FormatDouble(t.median, 3),
                    FormatDouble(t.min, 3), FormatDouble(t.max, 3),
                    FormatDouble(kvec, 1), std::to_string(r.pairs),
                    std::to_string(r.stats.peak_index_entries),
                    FormatDouble(r.memory_bytes / (1024.0 * 1024.0), 2)});
      scaling_rows.Push(
          JsonValue::Object()
              .Set("n", static_cast<uint64_t>(stream.size()))
              .Set("variant", cell.variant->label)
              .Set("kernel", ToString(cell.kernel))
              .Set("seconds", t.median)
              .Set("seconds_min", t.min)
              .Set("seconds_max", t.max)
              .Set("kvec_per_s", kvec)
              .Set("pairs", r.pairs)
              .Set("peak_index_entries", r.stats.peak_index_entries)
              .Set("memory_bytes", r.memory_bytes));
    }
  }
  std::cout << "Scaling: time vs stream length at fixed theta=" << theta
            << ", lambda=" << lambda
            << " (RCV1Like; expect ~constant kvec/s for STR; simd rows use "
               "the "
            << ToString(DetectSimdLevel())
            << " kernels; median, min and max of " << kReps
            << " interleaved reps)\n";
  table.Print(std::cout);

  // ---- Cluster sweep: in-process vs K-worker fleet over the wire ----
  // The same driver feeds S sessions round-robin through a ClusterClient
  // against both backends, so the table isolates what the cluster layer
  // costs: frame encode/decode + a Unix-socket round trip per call, and
  // how that overhead moves as the fleet widens (rendezvous hashing
  // spreads the sessions, so wider fleets mean smaller per-worker
  // indexes). Calls are synchronous, so this measures per-call overhead,
  // not parallel speedup. The pairs column must be identical on every
  // row — the in-process-vs-cluster bitwise pin, restated as a bench
  // invariant. Runs before the thread sweeps because the supervisor
  // forks its fleet, which must happen while this process is
  // single-threaded. Skip with --no-cluster; JSON goes to
  // --cluster-json-out (default BENCH_cluster.json; empty disables).
  if (!flags.GetBool("no-cluster", false)) {
    const std::vector<double> worker_list =
        flags.GetDoubleList("worker-list", {1, 2, 4});
    const size_t cluster_sessions =
        static_cast<size_t>(flags.GetInt("cluster-sessions", 4));
    const std::string cluster_json_out =
        flags.GetString("cluster-json-out", "BENCH_cluster.json");
    const Stream stream = GenerateProfile(
        DatasetProfile::kRcv1, flags.GetDouble("cluster-scale", args.scale),
        args.seed);
    cluster::WireConfig wire_cfg;
    wire_cfg.framework = Framework::kStreaming;
    wire_cfg.index = IndexScheme::kL2;
    wire_cfg.theta = theta;
    wire_cfg.lambda = lambda;
    std::vector<std::string> names;
    for (size_t s = 0; s < cluster_sessions; ++s) {
      names.push_back("bench-" + std::to_string(s));
    }
    const auto drive = [&](cluster::ClusterClient* client,
                           uint64_t* pairs_out) {
      for (const std::string& name : names) {
        client->CreateSession(name, wire_cfg);
      }
      uint64_t total = 0;
      std::vector<ResultPair> pairs;
      Timer timer;
      for (const StreamItem& item : stream) {
        for (const std::string& name : names) {
          pairs.clear();
          client->Push(name, item.ts, item.vec, &pairs);
          total += pairs.size();
        }
      }
      for (const std::string& name : names) {
        pairs.clear();
        client->Flush(name, &pairs);
        total += pairs.size();
        pairs.clear();
        client->CloseSession(name, &pairs);
        total += pairs.size();
      }
      *pairs_out = total;
      return timer.ElapsedSeconds();
    };

    // Every mode runs kReps times, interleaved (in-process, 1 worker, 2,
    // ... then again). Mode 0 is in-process.
    std::vector<int> modes = {0};
    for (double workers_d : worker_list) {
      modes.push_back(workers_d < 1 ? 1 : static_cast<int>(workers_d));
    }
    std::vector<std::vector<double>> seconds(modes.size());
    uint64_t baseline_pairs = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t m = 0; m < modes.size(); ++m) {
        uint64_t pairs = 0;
        if (modes[m] == 0) {
          cluster::ClusterClient local{JoinServiceOptions{}};
          seconds[m].push_back(drive(&local, &pairs));
          baseline_pairs = pairs;
          continue;
        }
        cluster::SupervisorOptions options;
        options.num_workers = modes[m];
        cluster::Supervisor supervisor(options);
        const Status started = supervisor.Start();
        if (!started.ok()) {
          std::cerr << "warning: cluster sweep skipped: "
                    << started.ToString() << "\n";
          modes.resize(m);
          break;
        }
        cluster::ClusterClient remote(&supervisor);
        seconds[m].push_back(drive(&remote, &pairs));
        supervisor.Shutdown();
        if (pairs != baseline_pairs) {
          std::cerr << "ERROR: cluster pairs " << pairs
                    << " != in-process pairs " << baseline_pairs << "\n";
          return 1;
        }
      }
    }

    TablePrinter table({"mode", "workers", "time(s)", "min", "max",
                        "kvec/s", "pairs", "overhead"},
                       args.tsv);
    JsonValue cluster_rows = JsonValue::Array();
    const double pushes = static_cast<double>(cluster_sessions) *
                          static_cast<double>(stream.size());
    const double baseline_seconds = Summarize(seconds[0]).median;
    for (size_t m = 0; m < modes.size(); ++m) {
      const RepTimes t = Summarize(seconds[m]);
      const double med = t.median;
      const std::string mode = modes[m] == 0 ? "in-process" : "cluster";
      table.AddRow({mode, std::to_string(modes[m]), FormatDouble(med, 3),
                    FormatDouble(t.min, 3), FormatDouble(t.max, 3),
                    FormatDouble(pushes / med / 1000.0, 1),
                    std::to_string(baseline_pairs),
                    FormatDouble(med / baseline_seconds, 2) + "x"});
      cluster_rows.Push(JsonValue::Object()
                            .Set("mode", mode)
                            .Set("workers", static_cast<uint64_t>(modes[m]))
                            .Set("seconds", med)
                            .Set("seconds_min", t.min)
                            .Set("seconds_max", t.max)
                            .Set("kvec_per_s", pushes / med / 1000.0)
                            .Set("pairs", baseline_pairs)
                            .Set("overhead_vs_inproc", med / baseline_seconds));
    }
    std::cout << "\nCluster layer: " << cluster_sessions
              << " STR-L2 sessions fed round-robin (n=" << stream.size()
              << " each) through a ClusterClient; in-process vs a forked "
                 "K-worker fleet over Unix sockets (pairs must match on "
                 "every row; median, min and max of "
              << kReps << " interleaved reps)\n";
    table.Print(std::cout);
    if (!cluster_json_out.empty()) {
      JsonValue cluster_doc = JsonValue::Object();
      cluster_doc.Set("bench", "cluster")
          .Set("theta", theta)
          .Set("lambda", lambda)
          .Set("seed", args.seed)
          .Set("n", static_cast<uint64_t>(stream.size()))
          .Set("sessions", static_cast<uint64_t>(cluster_sessions))
          .Set("hardware_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()))
          .Set("compiler", kCompiler)
          .Set("reps", static_cast<uint64_t>(kReps))
          .Set("cluster", std::move(cluster_rows));
      const Status status = WriteJsonFile(cluster_doc, cluster_json_out);
      if (!status.ok()) {
        std::cerr << "warning: " << status.ToString() << "\n";
      } else {
        std::cout << "\nwrote " << cluster_json_out << "\n";
      }
    }
  }

  if (flags.GetBool("no-threads", false)) {
    write_doc(std::move(scaling_rows));
    return 0;
  }

  // ---- Thread-count sweep over the MB window-close fan-out ----
  // The dense profile: avg |x| ≈ 500 makes the per-window probe phase the
  // dominant cost, which is exactly the work the fan-out parallelizes.
  {
    const std::vector<double> mb_thread_list =
        flags.GetDoubleList("mb-thread-list", {1, 2, 4, 8});
    const double mb_scale = flags.GetDouble("mb-scale", args.scale);
    const Stream stream =
        GenerateProfile(DatasetProfile::kWebSpam, mb_scale, args.seed);
    std::ostringstream caption;
    caption << "\nThread sweep: MB-L2 window-close fan-out, WebSpamLike n="
            << stream.size() << ", theta=" << theta << ", lambda=" << lambda
            << " (speedup vs num_threads=1, bit-identical output at every "
               "thread count; hardware threads available: "
            << std::thread::hardware_concurrency() << ")\n";
    doc.Set("mb_thread_sweep",
            PrintThreadSweep(stream, theta, lambda, mb_thread_list, args.tsv,
                             caption.str()));
  }

  // ---- Multi-tenant sweep: K concurrent JoinService sessions vs 1 ----
  // Every session runs the same STR-L2 config over the same stream, each
  // fed from its own thread. Per-session work is constant, so the
  // aggregate-throughput column exposes exactly the multi-tenant overhead
  // (registry locks, shared allocator pressure, cache competition); the
  // pairs column must equal K × the single-session count.
  {
    const std::vector<double> session_list =
        flags.GetDoubleList("session-list", {1, 2, 4, 8});
    const Stream stream = GenerateProfile(
        DatasetProfile::kRcv1, flags.GetDouble("service-scale", args.scale),
        args.seed);
    TablePrinter table({"sessions", "time(s)", "agg_kvec/s", "per_sess_kvec/s",
                        "slowdown", "pairs", "mem(MB)"},
                       args.tsv);
    double baseline_seconds = 0.0;
    for (double sessions_d : session_list) {
      const size_t k = sessions_d < 1 ? 1 : static_cast<size_t>(sessions_d);
      JoinService service;
      EngineConfig cfg;
      cfg.framework = Framework::kStreaming;
      cfg.index = IndexScheme::kL2;
      cfg.theta = theta;
      cfg.lambda = lambda;
      std::vector<CountingSink> sinks(k);
      std::vector<JoinService::SessionHandle> handles(k);
      for (size_t s = 0; s < k; ++s) {
        handles[s] = *service.CreateSession(
            {"tenant-" + std::to_string(s), cfg, &sinks[s]});
      }
      Timer timer;
      std::vector<std::thread> feeders;
      feeders.reserve(k);
      for (size_t s = 0; s < k; ++s) {
        feeders.emplace_back([&, s] {
          for (const StreamItem& item : stream) {
            service.Push(handles[s], item.ts, item.vec);
          }
        });
      }
      for (std::thread& t : feeders) t.join();
      const double seconds = timer.ElapsedSeconds();
      if (baseline_seconds == 0.0) baseline_seconds = seconds;
      uint64_t pairs = 0;
      for (const CountingSink& sink : sinks) pairs += sink.count();
      const ServiceStats stats = service.Stats();
      table.AddRow({std::to_string(k), FormatDouble(seconds, 3),
                    FormatDouble(k * stream.size() / seconds / 1000.0, 1),
                    FormatDouble(stream.size() / seconds / 1000.0, 1),
                    FormatDouble(seconds / baseline_seconds, 2) + "x",
                    std::to_string(pairs),
                    FormatDouble(stats.memory_bytes / (1024.0 * 1024.0), 2)});
    }
    std::cout << "\nJoinService multi-tenancy: K concurrent sessions, each "
                 "fed the full RCV1Like stream (n="
              << stream.size() << ") from its own thread; per-session kvec/s "
              << "vs K shows the multi-tenant overhead\n";
    table.Print(std::cout);
  }

  write_doc(std::move(scaling_rows));
  return 0;
}

}  // namespace
}  // namespace sssj

int main(int argc, char** argv) { return sssj::Run(argc, argv); }
