#include "core/join_service.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace sssj {

namespace {

// ---- spill manifest format (version 1) ----
//
//   SSSJSPILL 1
//   name_hex=<lowercase hex of the session name bytes>
//   checkpoint=<checkpoint filename, relative to the spill dir>
//
// The session name is hex-encoded because it is user-controlled (it may
// contain '=', '\n', anything); the checkpoint filename is generated by
// this file and needs no escaping.
constexpr char kSpillMagicLine[] = "SSSJSPILL 1";
constexpr char kSpillPrefix[] = "sssj-spill-";
constexpr char kSpillManifestSuffix[] = ".manifest";
constexpr char kSpillCheckpointSuffix[] = ".ckpt";

std::string HexEncode(const std::string& raw) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() * 2);
  for (const char c : raw) {
    const uint8_t b = static_cast<uint8_t>(c);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* raw) {
  if (hex.size() % 2 != 0) return false;
  raw->clear();
  raw->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int value = 0;
    for (int k = 0; k < 2; ++k) {
      const char c = hex[i + k];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= c - '0';
      } else if (c >= 'a' && c <= 'f') {
        value |= c - 'a' + 10;
      } else {
        return false;
      }
    }
    raw->push_back(static_cast<char>(value));
  }
  return true;
}

uint64_t Fnv64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Filesystem-safe stem unique per session name: full hex for short
// names; a hex prefix plus the full-name hash for pathological ones
// (filenames must stay under the typical 255-byte component limit).
std::string SpillStem(const std::string& name) {
  if (name.size() <= 100) return std::string(kSpillPrefix) + HexEncode(name);
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(Fnv64(name)));
  return std::string(kSpillPrefix) + HexEncode(name.substr(0, 50)) + "-" +
         hash_hex;
}

// The manifest always sits next to its checkpoint with the same stem.
std::string ManifestFor(const std::string& checkpoint_path) {
  const size_t suffix_len = sizeof(kSpillCheckpointSuffix) - 1;
  return checkpoint_path.substr(0, checkpoint_path.size() - suffix_len) +
         kSpillManifestSuffix;
}

// Writes the version-1 manifest; on failure the caller deletes the
// checkpoint so no orphaned state file survives.
Status WriteSpillManifest(const std::string& manifest_path,
                          const std::string& session_name,
                          const std::string& checkpoint_filename) {
  std::ofstream os(manifest_path, std::ios::trunc);
  if (!os) {
    return Status::IoError("cannot open spill manifest for writing: " +
                           manifest_path);
  }
  os << kSpillMagicLine << "\n";
  os << "name_hex=" << HexEncode(session_name) << "\n";
  os << "checkpoint=" << checkpoint_filename << "\n";
  os.flush();
  if (!os) {
    return Status::IoError("short write to spill manifest: " + manifest_path);
  }
  return Status::Ok();
}

// Parses a version-1 manifest. A malformed or unknown-version file is a
// failed parse, not a crash: the spill dir may be shared with other
// processes or hold leftovers from a future format.
bool ParseSpillManifest(const std::string& manifest_path, std::string* name,
                        std::string* checkpoint_filename) {
  std::ifstream is(manifest_path);
  if (!is) return false;
  std::string magic;
  if (!std::getline(is, magic) || magic != kSpillMagicLine) return false;
  std::string line;
  if (!std::getline(is, line) || line.rfind("name_hex=", 0) != 0) return false;
  if (!HexDecode(line.substr(sizeof("name_hex=") - 1), name)) return false;
  if (name->empty()) return false;
  if (!std::getline(is, line) || line.rfind("checkpoint=", 0) != 0) {
    return false;
  }
  *checkpoint_filename = line.substr(sizeof("checkpoint=") - 1);
  // The filename is generated by SpillStem, never user-controlled; refuse
  // anything with a path separator so a doctored manifest cannot point the
  // restore at a file outside the spill dir.
  if (checkpoint_filename->empty() ||
      checkpoint_filename->find('/') != std::string::npos) {
    return false;
  }
  return true;
}

}  // namespace

JoinService::JoinService(const Options& options)
    : options_(options), pool_(options.num_threads) {}

JoinService::~JoinService() {
  // Handles may outlive the service; leave them only closed husks. The
  // registry is copied out first: sessions lock before the registry,
  // never after it (see EnforceBudget).
  std::vector<std::shared_ptr<Session>> sessions;
  {
    MutexLock lock(mu_);
    for (const auto& [name, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions) {
    MutexLock lock(session->mu);
    Retire(session.get());
  }
}

void JoinService::Retire(Session* session) {
  session->closed = true;
  session->engine.reset();
  session->owned_sink.reset();
}

Status JoinService::UnknownSession() {
  return Status::NotFound("unknown or closed session handle");
}

bool JoinService::Evictable(const Session& session) {
  // Migration-enabled engines save/load the portable checkpoint format,
  // which works for every framework×scheme and thread count.
  if (session.config.adaptive.enable_migration ||
      session.config.index == IndexScheme::kAuto) {
    return true;
  }
  return session.config.framework == Framework::kStreaming &&
         session.config.index == IndexScheme::kL2;
}

void JoinService::NoteActivity(Session* session) const {
  session->mem_bytes.store(session->engine->MemoryBytes(),
                           std::memory_order_relaxed);
  session->last_active.store(
      activity_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
}

Status JoinService::EnsureResident(Session* session) const {
  if (!session->evicted) return Status::Ok();
  Status status = session->engine->LoadCheckpoint(session->spill_path);
  if (!status.ok()) return status;
  std::remove(ManifestFor(session->spill_path).c_str());
  std::remove(session->spill_path.c_str());
  session->evicted = false;
  session->spill_path.clear();
  session->mem_bytes.store(session->engine->MemoryBytes(),
                           std::memory_order_relaxed);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status JoinService::EvictLocked(Session* victim) {
  // The filename is derived from the session *name*, which outlives this
  // instance, and a manifest records the mapping — so a different
  // JoinService instance (after a restart, or a supervisor restoring a
  // dead worker's sessions) can enumerate the spill dir and re-adopt the
  // state via ListSpilled/RestoreSession.
  const std::string stem = SpillStem(victim->name);
  const std::string path =
      options_.spill_dir + "/" + stem + kSpillCheckpointSuffix;
  Status status = victim->engine->SaveCheckpoint(path);
  if (!status.ok()) return status;
  status = WriteSpillManifest(options_.spill_dir + "/" + stem +
                                  kSpillManifestSuffix,
                              victim->name, stem + kSpillCheckpointSuffix);
  if (!status.ok()) {
    std::remove(path.c_str());
    return status;
  }
  // Swap in a fresh empty engine of the same config; LoadCheckpoint on
  // reload restores the id counter and stream clock along with the index.
  StatusOr<std::unique_ptr<SssjEngine>> fresh =
      SssjEngine::Make(victim->config, victim->bound_sink);
  if (!fresh.ok()) {
    std::remove(ManifestFor(path).c_str());
    std::remove(path.c_str());
    return fresh.status();
  }
  victim->evicted_stats = victim->engine->stats();
  victim->engine = *std::move(fresh);
  victim->evicted = true;
  victim->spill_path = path;
  victim->mem_bytes.store(victim->engine->MemoryBytes(),
                          std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status JoinService::EnforceBudget(Session* current) {
  if (options_.memory_budget_bytes == 0) return Status::Ok();
  auto total_now = [this]() SSSJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t total = 0;
    for (const auto& [name, session] : sessions_) {
      total += session->mem_bytes.load(std::memory_order_relaxed);
    }
    return total;
  };
  size_t total = total_now();
  if (total <= options_.memory_budget_bytes) return Status::Ok();

  if (!options_.spill_dir.empty()) {
    std::vector<std::shared_ptr<Session>> victims;
    {
      MutexLock lock(mu_);
      victims.reserve(sessions_.size());
      for (const auto& [name, session] : sessions_) {
        if (session.get() != current) victims.push_back(session);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const std::shared_ptr<Session>& a,
                 const std::shared_ptr<Session>& b) {
                return a->last_active.load(std::memory_order_relaxed) <
                       b->last_active.load(std::memory_order_relaxed);
              });
    for (const auto& victim : victims) {
      if (total <= options_.memory_budget_bytes) break;
      // TryLock, never a blocking lock: the caller already holds
      // current->mu, and a session whose lock is contended is mid-push —
      // i.e. not dormant — so skipping it is also the right policy call.
      if (!victim->mu.TryLock()) continue;
      MutexLock vl(victim->mu, std::adopt_lock);
      if (victim->closed || victim->evicted || !Evictable(*victim)) {
        continue;
      }
      if (EvictLocked(victim.get()).ok()) total = total_now();
    }
  }
  if (total > options_.memory_budget_bytes) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "service memory budget exceeded: " + std::to_string(total) +
        " resident bytes against a budget of " +
        std::to_string(options_.memory_budget_bytes) +
        (options_.spill_dir.empty()
             ? " (eviction disabled: no spill_dir configured)"
             : " (no evictable dormant session left)"));
  }
  return Status::Ok();
}

StatusOr<JoinService::SessionHandle> JoinService::CreateSession(
    SessionOptions options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  // Build the engine outside the registry lock: a rejected config must
  // not disturb the map.
  EngineConfig config = std::move(options.engine);
  if (pool_.num_threads() > 1 && config.num_threads != 1 &&
      config.num_threads >= 0) {
    config.pool = &pool_;
  }
  ResultSink* sink =
      options.sink != nullptr ? options.sink : options.owned_sink.get();
  StatusOr<std::unique_ptr<SssjEngine>> engine = SssjEngine::Make(config, sink);
  if (!engine.ok()) return engine.status();

  const size_t mem_bytes = (*engine)->MemoryBytes();
  auto session =
      std::make_shared<Session>(this, options.name, *std::move(engine));
  session->mem_bytes.store(mem_bytes, std::memory_order_relaxed);
  session->owned_sink = std::move(options.owned_sink);
  session->config = std::move(config);  // resolved (pool applied)
  session->bound_sink = sink;
  session->last_active.store(
      activity_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);

  MutexLock lock(mu_);
  if (!sessions_.try_emplace(options.name, session).second) {
    return Status::AlreadyExists("a session named '" + options.name +
                                 "' already exists");
  }
  return SessionHandle(std::move(session));
}

StatusOr<JoinService::SessionHandle> JoinService::FindSession(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session named '" + name + "'");
  }
  return SessionHandle(it->second);
}

JoinService::Session* JoinService::Lookup(const SessionHandle& handle) const {
  Session* session = handle.session_.get();
  return session != nullptr && session->owner == this ? session : nullptr;
}

// Drops the session from the registry; false when it was not there (a
// second close, or a close racing another).
bool JoinService::Unregister(Session* session) {
  MutexLock lock(mu_);
  auto it = sessions_.find(session->name);
  if (it == sessions_.end() || it->second.get() != session) return false;
  sessions_.erase(it);
  return true;
}

Status JoinService::CloseSession(const SessionHandle& handle) {
  Session* session = Lookup(handle);
  if (session == nullptr || !Unregister(session)) return UnknownSession();
  // The registry no longer hands the session out, but other handles to
  // it may still be in use; `closed` makes such a call a clean kNotFound
  // instead of a push into a flushed engine.
  MutexLock lock(session->mu);
  session->closed = true;
  // An evicted session reloads before its final flush: migration-enabled
  // MB sessions can have pairs pending in the spilled window state, and
  // flushing the empty stand-in engine would silently drop them. (For
  // STR-L2 spills the flush is a no-op either way.)
  Status resident = EnsureResident(session);
  if (resident.ok()) session->engine->Flush();
  Retire(session);
  return resident;
}

Status JoinService::AbandonSession(const SessionHandle& handle) {
  Session* session = Lookup(handle);
  if (session == nullptr || !Unregister(session)) return UnknownSession();
  MutexLock lock(session->mu);
  Retire(session);
  if (session->evicted) {
    // The caller has its own copy of the state (that is the contract of
    // Abandon); the spilled one is garbage, not something to restore.
    std::remove(ManifestFor(session->spill_path).c_str());
    std::remove(session->spill_path.c_str());
    session->evicted = false;
    session->spill_path.clear();
  }
  // Deliberately no Flush: pairs still pending in MB windows travel
  // inside the checkpoint the caller took and emit at the destination;
  // flushing here would emit them a second time at the source.
  return Status::Ok();
}

Status JoinService::Push(const SessionHandle& handle, Timestamp ts,
                         SparseVector vec) {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  Status budget = EnforceBudget(session);
  if (!budget.ok()) return budget;
  Status resident = EnsureResident(session);
  if (!resident.ok()) return resident;
  Status result = session->engine->Push(ts, std::move(vec));
  NoteActivity(session);
  return result;
}

StatusOr<BatchPushResult> JoinService::PushBatch(const SessionHandle& handle,
                                                 const Stream& batch) {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  Status budget = EnforceBudget(session);
  if (!budget.ok()) return budget;
  Status resident = EnsureResident(session);
  if (!resident.ok()) return resident;
  BatchPushResult result = session->engine->PushBatch(batch);
  NoteActivity(session);
  return result;
}

Status JoinService::Flush(const SessionHandle& handle) {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // Flushing the empty stand-in of an evicted session would drop the
  // pairs pending in its spilled MB windows; bring it back first.
  Status resident = EnsureResident(session);
  if (!resident.ok()) return resident;
  session->engine->Flush();
  // MB's flush closes both windows, so the footprint changes here too.
  NoteActivity(session);
  return Status::Ok();
}

Status JoinService::SaveCheckpoint(const SessionHandle& handle,
                                   const std::string& path) const {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // An evicted session must reload first, or we would checkpoint the
  // fresh empty stand-in engine.
  Status resident = EnsureResident(session);
  if (!resident.ok()) return resident;
  return session->engine->SaveCheckpoint(path);
}

template <typename Load>
Status JoinService::LoadInto(Session* session, Load&& load) {
  if (!session->evicted) {
    // SssjEngine::LoadCheckpoint leaves the engine untouched on failure.
    Status status = load(session->engine.get());
    if (status.ok()) NoteActivity(session);
    return status;
  }
  StatusOr<std::unique_ptr<SssjEngine>> fresh =
      SssjEngine::Make(session->config, session->bound_sink);
  if (!fresh.ok()) return fresh.status();
  Status status = load(fresh->get());
  if (!status.ok()) return status;
  // The caller replaced the session's state wholesale; the spilled copy
  // is dead now, and only now.
  session->engine = *std::move(fresh);
  std::remove(ManifestFor(session->spill_path).c_str());
  std::remove(session->spill_path.c_str());
  session->evicted = false;
  session->spill_path.clear();
  NoteActivity(session);
  return Status::Ok();
}

Status JoinService::LoadCheckpoint(const SessionHandle& handle,
                                   const std::string& path) {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  return LoadInto(session, [&path](SssjEngine* engine) {
    return engine->LoadCheckpoint(path);
  });
}

Status JoinService::SaveCheckpoint(const SessionHandle& handle,
                                   std::ostream& os) const {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  Status resident = EnsureResident(session);
  if (!resident.ok()) return resident;
  return session->engine->SaveCheckpoint(os);
}

Status JoinService::LoadCheckpoint(const SessionHandle& handle,
                                   std::istream& is) {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  return LoadInto(session, [&is](SssjEngine* engine) {
    return engine->LoadCheckpoint(is);
  });
}

Status JoinService::SwitchScheme(const SessionHandle& handle,
                                 Framework framework, IndexScheme scheme) {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  // Migrating the empty stand-in of an evicted session would orphan the
  // spilled state; bring it back first.
  Status resident = EnsureResident(session);
  if (!resident.ok()) return resident;
  Status result = session->engine->SwitchScheme(framework, scheme);
  NoteActivity(session);
  return result;
}

StatusOr<RunStats> JoinService::SessionStats(
    const SessionHandle& handle) const {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  return StatsOf(*session);
}

const RunStats& JoinService::StatsOf(const Session& session) {
  return session.evicted ? session.evicted_stats : session.engine->stats();
}

StatusOr<size_t> JoinService::SessionMemoryBytes(
    const SessionHandle& handle) const {
  Session* session = Lookup(handle);
  if (session == nullptr) return UnknownSession();
  MutexLock lock(session->mu);
  if (session->closed) return UnknownSession();
  return session->engine->MemoryBytes();
}

size_t JoinService::num_sessions() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

StatusOr<std::vector<JoinService::SpillEntry>> JoinService::ListSpilled(
    const std::string& spill_dir) {
  if (spill_dir.empty()) {
    return Status::InvalidArgument("spill_dir must be non-empty");
  }
  DIR* dir = ::opendir(spill_dir.c_str());
  if (dir == nullptr) {
    return Status::IoError("cannot open spill dir: " + spill_dir);
  }
  std::vector<SpillEntry> entries;
  const std::string prefix = kSpillPrefix;
  const std::string suffix = kSpillManifestSuffix;
  for (dirent* ent = ::readdir(dir); ent != nullptr; ent = ::readdir(dir)) {
    const std::string filename = ent->d_name;
    if (filename.size() <= prefix.size() + suffix.size()) continue;
    if (filename.compare(0, prefix.size(), prefix) != 0) continue;
    if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      continue;
    }
    const std::string manifest_path = spill_dir + "/" + filename;
    SpillEntry entry;
    std::string checkpoint_filename;
    // Unreadable / malformed / future-version manifests are skipped, not
    // errors: the scan must tolerate leftovers and concurrent writers.
    if (!ParseSpillManifest(manifest_path, &entry.name,
                            &checkpoint_filename)) {
      continue;
    }
    entry.manifest_path = manifest_path;
    entry.checkpoint_path = spill_dir + "/" + checkpoint_filename;
    entries.push_back(std::move(entry));
  }
  ::closedir(dir);
  std::sort(entries.begin(), entries.end(),
            [](const SpillEntry& a, const SpillEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

StatusOr<JoinService::SessionHandle> JoinService::RestoreSession(
    SessionOptions options, const std::string& checkpoint_path) {
  StatusOr<SessionHandle> handle = CreateSession(std::move(options));
  if (!handle.ok()) return handle.status();
  Status loaded = LoadCheckpoint(*handle, checkpoint_path);
  if (!loaded.ok()) {
    // The half-born session holds no state worth keeping; drop it so the
    // caller sees a clean failure, not a stray empty session.
    AbandonSession(*handle);
    return loaded;
  }
  return handle;
}

void JoinService::RemoveSpill(const SpillEntry& entry) {
  std::remove(entry.checkpoint_path.c_str());
  std::remove(entry.manifest_path.c_str());
}

ServiceStats JoinService::Stats() const {
  // Snapshot the registry, then visit sessions without the registry lock
  // so pushes on other sessions keep flowing while we aggregate.
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.reserve(sessions_.size());
    for (const auto& [name, session] : sessions_) snapshot.push_back(session);
  }
  ServiceStats stats;
  stats.sessions_evicted = evictions_.load(std::memory_order_relaxed);
  stats.session_reloads = reloads_.load(std::memory_order_relaxed);
  stats.budget_rejections = budget_rejections_.load(std::memory_order_relaxed);
  for (const auto& session : snapshot) {
    MutexLock lock(session->mu);
    if (session->closed) continue;
    ServiceStats::SessionEntry entry;
    entry.name = session->name;
    const RunStats& run = StatsOf(*session);
    entry.vectors_processed = run.vectors_processed;
    entry.pairs_emitted = run.pairs_emitted;
    entry.memory_bytes = session->mem_bytes.load(std::memory_order_relaxed);
    entry.evicted = session->evicted;
    stats.vectors_processed += entry.vectors_processed;
    stats.pairs_emitted += entry.pairs_emitted;
    stats.memory_bytes += entry.memory_bytes;
    stats.sessions.push_back(std::move(entry));
  }
  stats.num_sessions = stats.sessions.size();
  std::sort(stats.sessions.begin(), stats.sessions.end(),
            [](const ServiceStats::SessionEntry& a,
               const ServiceStats::SessionEntry& b) { return a.name < b.name; });
  return stats;
}

}  // namespace sssj
