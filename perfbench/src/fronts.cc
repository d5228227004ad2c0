#include "fronts.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>

#include "cluster/supervisor.h"
#include "core/join_service.h"
#include "index/stream_l2_index.h"
#include "util/simd.h"

namespace perfbench {

namespace {

constexpr size_t kBatchSize = 64;
const char kSession[] = "bench";

// Collects every pair with the moment it reached the benchmark and the
// item whose front call delivered it.
class Recorder : public sssj::ResultSink {
 public:
  void Emit(const sssj::ResultPair& pair) override { Add(pair, NowNs()); }
  void AddAll(const std::vector<sssj::ResultPair>& pairs) {
    const int64_t now = NowNs();
    for (const sssj::ResultPair& p : pairs) Add(p, now);
  }

  size_t current_call = 0;
  std::vector<sssj::ResultPair> pairs;
  std::vector<int64_t> reach_ns;
  std::vector<size_t> pair_call;

 private:
  void Add(const sssj::ResultPair& pair, int64_t now) {
    pairs.push_back(pair);
    reach_ns.push_back(now);
    pair_call.push_back(current_call);
  }
};

// One rung's public entry point. Push receives a copy of raw[i].vec made
// outside the timed call (rungs that read `prepared` get an empty one).
class Front {
 public:
  Front(const Input& input, Recorder* out) : in_(input), out_(out) {}
  virtual ~Front() = default;
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  virtual sssj::Status Setup() = 0;
  virtual sssj::Status Push(size_t i, sssj::SparseVector vec) = 0;
  // Returns the number of items that were not accepted.
  virtual uint64_t PushBatch(const sssj::Stream& batch) {
    return batch.size();
  }
  virtual sssj::Status Flush() = 0;
  virtual size_t StateBytes() = 0;
  virtual bool Stats(sssj::RunStats* /*out*/) { return false; }
  virtual bool NeedsCopy() const { return true; }
  virtual uint64_t WorkerHwmKb() { return 0; }
  virtual uint64_t Restarts() { return 0; }

 protected:
  const Input& in_;
  Recorder* out_;
};

class IndexFront final : public Front {
 public:
  using Front::Front;
  sssj::Status Setup() override {
    if (in_.config.framework != sssj::Framework::kStreaming ||
        in_.config.index != sssj::IndexScheme::kL2) {
      return sssj::Status::Unimplemented("the index rung is STR-L2 only");
    }
    index_ = std::make_unique<sssj::StreamL2Index>(
        in_.params, sssj::L2IndexOptions{},
        sssj::KernelModeUsesSimd(in_.config.kernel), in_.config.tiered);
    return sssj::Status::Ok();
  }
  sssj::Status Push(size_t i, sssj::SparseVector) override {
    index_->ProcessArrival(in_.prepared[i], out_);
    return sssj::Status::Ok();
  }
  sssj::Status Flush() override { return sssj::Status::Ok(); }
  size_t StateBytes() override { return index_->MemoryBytes(); }
  bool Stats(sssj::RunStats* out) override {
    *out = index_->stats();
    return true;
  }
  bool NeedsCopy() const override { return false; }

 private:
  std::unique_ptr<sssj::StreamL2Index> index_;
};

class StreamFront final : public Front {
 public:
  using Front::Front;
  sssj::Status Setup() override {
    auto core = sssj::MakeJoinCore(in_.config, in_.config.framework,
                                   in_.config.index, in_.params);
    if (!core.ok()) return core.status();
    core_ = std::move(*core);
    return sssj::Status::Ok();
  }
  sssj::Status Push(size_t i, sssj::SparseVector) override {
    return core_->Push(in_.prepared[i], out_)
               ? sssj::Status::Ok()
               : sssj::Status::Internal("JoinCore::Push rejected an item");
  }
  sssj::Status Flush() override {
    core_->Flush(out_);
    return sssj::Status::Ok();
  }
  size_t StateBytes() override { return core_->MemoryBytes(); }
  bool Stats(sssj::RunStats* out) override {
    *out = core_->stats();
    return true;
  }
  bool NeedsCopy() const override { return false; }

 private:
  std::unique_ptr<sssj::JoinCore> core_;
};

class EngineFront final : public Front {
 public:
  using Front::Front;
  sssj::Status Setup() override {
    auto engine = sssj::SssjEngine::Make(in_.config, out_);
    if (!engine.ok()) return engine.status();
    engine_ = std::move(*engine);
    return sssj::Status::Ok();
  }
  sssj::Status Push(size_t i, sssj::SparseVector vec) override {
    return engine_->Push(in_.raw[i].ts, std::move(vec));
  }
  sssj::Status Flush() override {
    engine_->Flush();
    return sssj::Status::Ok();
  }
  size_t StateBytes() override { return engine_->MemoryBytes(); }
  bool Stats(sssj::RunStats* out) override {
    *out = engine_->stats();
    return true;
  }

 private:
  std::unique_ptr<sssj::SssjEngine> engine_;
};

class ServiceFront final : public Front {
 public:
  using Front::Front;
  sssj::Status Setup() override {
    service_ = std::make_unique<sssj::JoinService>();
    auto handle = service_->CreateSession(
        sssj::JoinService::SessionOptions(kSession, in_.config, out_));
    if (!handle.ok()) return handle.status();
    handle_ = *handle;
    return sssj::Status::Ok();
  }
  sssj::Status Push(size_t i, sssj::SparseVector vec) override {
    return service_->Push(handle_, in_.raw[i].ts, std::move(vec));
  }
  sssj::Status Flush() override { return service_->Flush(handle_); }
  size_t StateBytes() override {
    auto bytes = service_->SessionMemoryBytes(handle_);
    return bytes.ok() ? *bytes : 0;
  }
  bool Stats(sssj::RunStats* out) override {
    auto stats = service_->SessionStats(handle_);
    if (!stats.ok()) return false;
    *out = *stats;
    return true;
  }

 private:
  std::unique_ptr<sssj::JoinService> service_;
  sssj::JoinService::SessionHandle handle_;
};

// ClusterClient over either backend: in-process (no supervisor) or a
// forked 1-worker fleet. Pairs come back in the returned vector.
class ClientFront final : public Front {
 public:
  ClientFront(const Input& input, Recorder* out, bool remote)
      : Front(input, out), remote_(remote) {}

  sssj::Status Setup() override {
    if (remote_) {
      sssj::cluster::SupervisorOptions options;
      options.num_workers = 1;
      supervisor_ = std::make_unique<sssj::cluster::Supervisor>(options);
      sssj::Status started = supervisor_->Start();
      if (!started.ok()) return started;
      client_ = std::make_unique<sssj::cluster::ClusterClient>(
          supervisor_.get());
    } else {
      client_ = std::make_unique<sssj::cluster::ClusterClient>(
          sssj::JoinServiceOptions{});
    }
    return client_->CreateSession(
        kSession, sssj::cluster::WireConfig::FromEngineConfig(in_.config));
  }
  sssj::Status Push(size_t i, sssj::SparseVector vec) override {
    reply_.clear();
    sssj::Status status =
        client_->Push(kSession, in_.raw[i].ts, std::move(vec), &reply_);
    out_->AddAll(reply_);
    return status;
  }
  uint64_t PushBatch(const sssj::Stream& batch) override {
    reply_.clear();
    auto result = client_->PushBatch(kSession, batch, &reply_);
    out_->AddAll(reply_);
    return result.ok() ? result->rejects.size() : batch.size();
  }
  sssj::Status Flush() override {
    reply_.clear();
    sssj::Status status = client_->Flush(kSession, &reply_);
    out_->AddAll(reply_);
    return status;
  }
  size_t StateBytes() override {
    auto stats = client_->SessionStats(kSession);
    return stats.ok() ? stats->memory_bytes : 0;
  }
  uint64_t WorkerHwmKb() override {
    if (supervisor_ == nullptr) return 0;
    auto pid = supervisor_->worker_pid(0);
    return pid.ok() ? PeakRssKb(std::to_string(*pid)) : 0;
  }
  uint64_t Restarts() override {
    return supervisor_ == nullptr ? 0 : supervisor_->restarts();
  }

 private:
  const bool remote_;
  // Declared before the client, so the client goes first and the
  // supervisor's destructor then shuts the worker down and reaps it.
  std::unique_ptr<sssj::cluster::Supervisor> supervisor_;
  std::unique_ptr<sssj::cluster::ClusterClient> client_;
  std::vector<sssj::ResultPair> reply_;
};

std::unique_ptr<Front> MakeFront(Rung rung, const Input& input,
                                 Recorder* out) {
  switch (rung) {
    case Rung::kIndex:
      return std::make_unique<IndexFront>(input, out);
    case Rung::kStream:
      return std::make_unique<StreamFront>(input, out);
    case Rung::kEngine:
      return std::make_unique<EngineFront>(input, out);
    case Rung::kService:
      return std::make_unique<ServiceFront>(input, out);
    case Rung::kClientLocal:
      return std::make_unique<ClientFront>(input, out, /*remote=*/false);
    case Rung::kCluster:
    case Rung::kClusterBatch:
      return std::make_unique<ClientFront>(input, out, /*remote=*/true);
  }
  return nullptr;
}

sssj::RunStats Delta(const sssj::RunStats& after,
                     const sssj::RunStats& before) {
  sssj::RunStats d;
  d.entries_traversed = after.entries_traversed - before.entries_traversed;
  d.candidates_generated =
      after.candidates_generated - before.candidates_generated;
  d.verify_calls = after.verify_calls - before.verify_calls;
  d.full_dots = after.full_dots - before.full_dots;
  d.pairs_emitted = after.pairs_emitted - before.pairs_emitted;
  d.vectors_processed = after.vectors_processed - before.vectors_processed;
  d.entries_indexed = after.entries_indexed - before.entries_indexed;
  d.entries_pruned = after.entries_pruned - before.entries_pruned;
  d.index_rebuilds = after.index_rebuilds - before.index_rebuilds;
  return d;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

const char* RungName(Rung rung) {
  switch (rung) {
    case Rung::kIndex:
      return "index";
    case Rung::kStream:
      return "stream";
    case Rung::kEngine:
      return "engine";
    case Rung::kService:
      return "service";
    case Rung::kClientLocal:
      return "client.local";
    case Rung::kCluster:
      return "client.1w";
    case Rung::kClusterBatch:
      return "client.1w.b64";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t PeakRssKb(const std::string& pid_or_self) {
  std::ifstream status("/proc/" + pid_or_self + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      uint64_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0;
}

PassResult RunPass(Rung rung, const Input& in, const PassOptions& options) {
  PassResult r;
  Recorder rec;
  std::unique_ptr<Front> front = MakeFront(rung, in, &rec);
  r.begin_ns = NowNs();
  sssj::Status status = front->Setup();
  r.setup_s = static_cast<double>(NowNs() - r.begin_ns) * 1e-9;
  if (!status.ok()) {
    r.error = std::string(RungName(rung)) + " set-up: " + status.ToString();
    return r;
  }

  const size_t n = in.raw.size();
  const size_t step = rung == Rung::kClusterBatch ? kBatchSize : 1;
  // On STR every arrival is its own reporting unit (JoinCore::AtBoundary()
  // is always true); on MB a call closes a window when it indexes one.
  const bool every_call_closes =
      in.config.framework == sssj::Framework::kStreaming;
  std::vector<int64_t> start_ns(n, 0);
  int64_t busy_ns = 0;
  int64_t excluded_ns = 0;
  int64_t window_start = 0;
  uint64_t rebuilds = 0;
  sssj::RunStats before;
  sssj::RunStats now;

  // Window time, less the excluded time so far: chunk marks are taken
  // on this clock.
  const auto window_now = [&excluded_ns]() { return NowNs() - excluded_ns; };
  std::vector<int64_t> chunk_marks;
  const auto run_range = [&](size_t begin, size_t end, bool timed) {
    size_t timed_calls = 0;
    for (size_t i = begin; i < end; i += step) {
      const size_t stop = std::min(end, i + step);
      rec.current_call = i;
      if (timed && (i - begin) % kChunkItems < step) {
        chunk_marks.push_back(window_now());
      }
      int64_t t0 = 0;
      int64_t t1 = 0;
      if (step == 1) {
        sssj::SparseVector vec;
        if (front->NeedsCopy()) vec = in.raw[i].vec;
        t0 = NowNs();
        const sssj::Status pushed = front->Push(i, std::move(vec));
        t1 = NowNs();
        r.failed += pushed.ok() ? 0 : 1;
      } else {
        const sssj::Stream batch(in.raw.begin() + static_cast<long>(i),
                                 in.raw.begin() + static_cast<long>(stop));
        t0 = NowNs();
        r.failed += front->PushBatch(batch);
        t1 = NowNs();
      }
      r.attempted += stop - i;
      if (!timed) continue;
      std::fill(start_ns.begin() + static_cast<long>(i),
                start_ns.begin() + static_cast<long>(stop), t0);
      busy_ns += t1 - t0;
      r.call_us.push_back(Us(t1 - t0));
      if (options.keep_spans) {
        r.spans.push_back({rung, static_cast<int64_t>(i), t0, t1});
      }
      if (rung == Rung::kStream) {
        front->Stats(&now);
        if (every_call_closes || now.index_rebuilds != rebuilds) {
          r.boundary_call_us.push_back(Us(t1 - t0));
          rebuilds = now.index_rebuilds;
        }
      }
      if (options.memory_sample_every != 0 &&
          timed_calls++ % options.memory_sample_every == 0) {
        const int64_t m0 = NowNs();
        r.state_bytes = front->StateBytes();
        const int64_t m1 = NowNs();
        r.memory_call_us.push_back(Us(m1 - m0));
        excluded_ns += m1 - m0;
      }
    }
  };

  run_range(0, in.warm, /*timed=*/false);
  const bool have_stats = front->Stats(&before);
  rebuilds = before.index_rebuilds;
  window_start = NowNs();
  run_range(in.warm, n, /*timed=*/true);
  chunk_marks.front() = window_start;

  const int64_t m0 = NowNs();
  r.state_bytes = front->StateBytes();
  excluded_ns += NowNs() - m0;

  rec.current_call = n;
  const int64_t f0 = NowNs();
  status = front->Flush();
  const int64_t f1 = NowNs();
  if (!status.ok()) {
    r.error = std::string(RungName(rung)) + " flush: " + status.ToString();
  }
  busy_ns += f1 - f0;
  if (options.keep_spans) r.spans.push_back({rung, -1, f0, f1});
  r.window_s = static_cast<double>(f1 - window_start - excluded_ns) * 1e-9;
  chunk_marks.push_back(f1 - excluded_ns);
  for (size_t k = 1; k < chunk_marks.size(); ++k) {
    r.chunk_s.push_back(
        static_cast<double>(chunk_marks[k] - chunk_marks[k - 1]) * 1e-9);
  }
  r.busy_s = static_cast<double>(busy_ns) * 1e-9;
  r.timed_items = n - in.warm;

  sssj::RunStats after;
  if (have_stats && front->Stats(&after)) r.stats = Delta(after, before);
  r.worker_hwm_kb = front->WorkerHwmKb();
  r.restarts = front->Restarts();
  front.reset();
  r.end_ns = NowNs();

  std::vector<std::pair<std::pair<uint64_t, uint64_t>, int64_t>> delays;
  for (size_t k = 0; k < rec.pairs.size(); ++k) {
    const sssj::ResultPair& p = rec.pairs[k];
    const size_t later = static_cast<size_t>(std::max(p.a, p.b));
    if (later >= in.warm && later < n) {
      delays.push_back({{std::min(p.a, p.b), later},
                        rec.reach_ns[k] - start_ns[later]});
    }
  }
  std::sort(delays.begin(), delays.end());
  r.delay_us.reserve(delays.size());
  for (const auto& d : delays) r.delay_us.push_back(Us(d.second));
  r.pairs = std::move(rec.pairs);
  r.pair_call = std::move(rec.pair_call);
  return r;
}

std::vector<double> MeasureSetups(Rung rung, const Input& input, int count,
                                  double max_seconds) {
  std::vector<double> setups;
  const int64_t deadline = NowNs() + static_cast<int64_t>(max_seconds * 1e9);
  for (int k = 0; k < count && NowNs() < deadline; ++k) {
    Recorder rec;
    std::unique_ptr<Front> front = MakeFront(rung, input, &rec);
    const int64_t t0 = NowNs();
    const sssj::Status status = front->Setup();
    const int64_t t1 = NowNs();
    if (!status.ok()) return {};
    setups.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }
  return setups;
}

}  // namespace perfbench
